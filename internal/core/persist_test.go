package core

import (
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/storage"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	ix := buildPerson(t)
	path := filepath.Join(t.TempDir(), "person.xvi")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Verify(); err != nil {
		t.Fatalf("loaded index fails verification: %v", err)
	}
	// Queries behave identically.
	if len(got.Snapshot().LookupString("Arthur")) != len(ix.Snapshot().LookupString("Arthur")) {
		t.Error("string lookup differs after reload")
	}
	if len(lookupDoubleEq(got.Snapshot(), 78.230)) != len(lookupDoubleEq(ix.Snapshot(), 78.230)) {
		t.Error("double lookup differs after reload")
	}
	d := got.Doc()
	if d.NumNodes() != ix.Doc().NumNodes() {
		t.Error("node count differs after reload")
	}
}

func TestSaveLoadAfterUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	doc := randomNumericDoc(t, rng, 300)
	ix := Build(doc, DefaultOptions())
	// Mutate: updates, a delete, an insert — then persist.
	var texts []int
	for i := 0; i < doc.NumNodes(); i++ {
		if doc.Kind(int32AsNodeID(i)) == 2 { // xmltree.Text
			texts = append(texts, i)
		}
	}
	for i := 0; i < 20 && len(texts) > 0; i++ {
		n := texts[rng.Intn(len(texts))]
		if err := ix.UpdateText(int32AsNodeID(n), randomValue(rng)); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "mutated.xvi")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Verify(); err != nil {
		t.Fatal(err)
	}
	// The loaded index remains updatable.
	d := got.Doc()
	for i := 0; i < d.NumNodes(); i++ {
		if d.Kind(int32AsNodeID(i)) == 2 {
			if err := got.UpdateText(int32AsNodeID(i), "42.5"); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if err := got.Verify(); err != nil {
		t.Fatalf("after post-load update: %v", err)
	}
}

func TestSaveLoadPartialOptions(t *testing.T) {
	doc := mustParseForTest(t, personXML)
	ix := Build(doc, Options{String: true})
	path := filepath.Join(t.TempDir(), "partial.xvi")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	opts := got.Snapshot().Options()
	if !opts.String || opts.Double || opts.DateTime || opts.Date || len(opts.Types) != 0 {
		t.Errorf("options = %+v", opts)
	}
	if err := got.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotSectionSizes(t *testing.T) {
	ix := buildPerson(t)
	path := filepath.Join(t.TempDir(), "sized.xvi")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	r, err := storage.OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, name := range []string{SectionDoc, SectionHash, SectionStrTree, TypedSectionName(TypeDouble), TypedSectionName(TypeDateTime), TypedSectionName(TypeDate)} {
		if r.SectionLen(name) <= 0 {
			t.Errorf("section %s has size %d", name, r.SectionLen(name))
		}
	}
	// The document section dominates the double index (the paper's 2-3%
	// claim at scale; at toy scale just require doc > double tree).
	if r.SectionLen(SectionDoc) <= 0 {
		t.Error("doc section empty")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.xvi")
	if err := writeGarbage(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Error("loading garbage must fail")
	}
}
