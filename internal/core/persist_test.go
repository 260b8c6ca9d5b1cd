package core

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
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
	if !opts.String || len(opts.Types) != 0 {
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
	for _, name := range []string{SectionDoc, SectionStrTree, TypedSectionName(TypeDouble), TypedSectionName(TypeDateTime), TypedSectionName(TypeDate)} {
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

// loadCrafted saves a small document, replaces section name's payload
// with what write encodes — as a follower could receive it from a
// leader's /v1/snapshot — and returns Load's error.
func loadCrafted(t *testing.T, name string, write func(ix *Indexes, e *storage.Encoder)) error {
	t.Helper()
	ix := Build(mustParseForTest(t, `<r a="1"><p>4.5</p></r>`), DefaultOptions())
	dir := t.TempDir()
	src := filepath.Join(dir, "good.xvi")
	if err := ix.Save(src); err != nil {
		t.Fatal(err)
	}
	e := storage.NewBufEncoder(nil)
	write(ix, e)
	sec, err := e.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "crafted.xvi")
	rewriteSection(t, src, dst, name, sec)
	_, err = Load(dst)
	return err
}

// craftedTreeCount encodes a tree section naming count entries,
// followed by none.
func craftedTreeCount(count uint64) func(*Indexes, *storage.Encoder) {
	return func(_ *Indexes, e *storage.Encoder) { e.Uv(count) }
}

// TestLoadRejectsCraftedTreeCountMax: a tree count of 2^64-1 is an
// error, not a makeslice panic.
func TestLoadRejectsCraftedTreeCountMax(t *testing.T) {
	if err := loadCrafted(t, SectionStrTree, craftedTreeCount(^uint64(0))); err == nil {
		t.Fatal("Load accepted a tree section whose count exceeds the section")
	}
}

// TestLoadRejectsCraftedTreeCountHuge: a tree count of 2^40 is an error,
// not an allocation that exhausts memory.
func TestLoadRejectsCraftedTreeCountHuge(t *testing.T) {
	if err := loadCrafted(t, SectionStrTree, craftedTreeCount(1<<40)); err == nil {
		t.Fatal("Load accepted a tree section whose count exceeds the section")
	}
}

// TestLoadRejectsCraftedTreeOrder: tree entries that do not ascend
// strictly by (key, posting) — a repeated entry, a key delta that wraps
// back, a posting delta that wraps — are an error, not a panic in the
// bulk load.
func TestLoadRejectsCraftedTreeOrder(t *testing.T) {
	for name, deltas := range map[string][]uint64{
		"repeated entry":       {2, 5, 1, 0, 0},
		"wrapping key delta":   {2, 5, 1, ^uint64(0), 1},
		"wrapping value delta": {2, 5, 1, 0, 1<<32 - 1},
	} {
		err := loadCrafted(t, SectionStrTree, func(_ *Indexes, e *storage.Encoder) {
			for _, v := range deltas {
				e.Uv(v)
			}
		})
		if err == nil {
			t.Errorf("%s: Load accepted a tree section whose entries do not ascend", name)
		}
	}
}

// TestLoadRejectsCraftedDocCount: a document section naming more nodes
// than its bytes can hold is an error, not an allocation of what it
// names.
func TestLoadRejectsCraftedDocCount(t *testing.T) {
	err := loadCrafted(t, SectionDoc, func(_ *Indexes, e *storage.Encoder) {
		e.Uv(1 << 40) // nodes
		e.Uv(0)       // attributes
	})
	if err == nil || !strings.Contains(err.Error(), "does not fit") {
		t.Fatalf("Load of a document section naming 2^40 nodes: %v", err)
	}
}

// TestLoadRejectsCraftedStableCount: a stable column count or a retired
// id count the section cannot hold is an error, and Load allocates
// nothing near what it names. The id space is the two counts' sum, so a
// retired count of 2^31-1 would otherwise mean an 8 GiB inverse map.
func TestLoadRejectsCraftedStableCount(t *testing.T) {
	for name, write := range map[string]func(*Indexes, *storage.Encoder){
		"column count 2^64-1": func(_ *Indexes, e *storage.Encoder) { e.Uv(^uint64(0)) },
		"column count 2^31-1": func(_ *Indexes, e *storage.Encoder) { e.Uv(1<<31 - 1) },
		"retired count 2^64-1": func(ix *Indexes, e *storage.Encoder) {
			stableOf := &ix.Snapshot().stableOf
			e.U32s(stableOf.AppendRange(nil, 0, stableOf.Len()))
			e.Uv(^uint64(0))
		},
		"id space 2^31-1": func(ix *Indexes, e *storage.Encoder) {
			stableOf := &ix.Snapshot().stableOf
			stables := stableOf.AppendRange(nil, 0, stableOf.Len())
			e.U32s(stables)
			e.Uv(uint64(1<<31 - 1 - len(stables)))
		},
	} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := loadCrafted(t, SectionStable, write)
		runtime.ReadMemStats(&m1)
		if err == nil || !strings.Contains(err.Error(), "does not fit") {
			t.Errorf("%s: Load of a stable section whose count exceeds it: %v", name, err)
		}
		if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc >= 16<<20 {
			t.Errorf("%s: building, saving and loading a crafted snapshot allocated %d bytes", name, alloc)
		}
	}
}

// TestLoadRejectsBrokenStableMap: Load inverts the stable columns, and a
// stable id outside its id space or one named twice — by the column or
// by the column and the retired ids — is an error, found before the
// fold keys typed state by stable id.
func TestLoadRejectsBrokenStableMap(t *testing.T) {
	for name, broken := range map[string]func(stables []uint32) (retired []uint32){
		"outside":          func(stables []uint32) []uint32 { stables[len(stables)-1] = math.MaxUint32; return nil },
		"duplicate":        func(stables []uint32) []uint32 { stables[1] = stables[0]; return nil },
		"live and retired": func(stables []uint32) []uint32 { return []uint32{stables[0]} },
		"retired outside":  func(stables []uint32) []uint32 { return []uint32{uint32(len(stables)) + 1} },
		"retired twice": func(stables []uint32) []uint32 {
			return []uint32{uint32(len(stables)), uint32(len(stables))}
		},
	} {
		err := loadCrafted(t, SectionStable, func(ix *Indexes, e *storage.Encoder) {
			s := ix.Snapshot()
			stables := s.stableOf.AppendRange(nil, 0, s.stableOf.Len())
			retired := broken(stables)
			e.U32s(stables)
			e.Uv(uint64(len(retired)))
			prev := uint32(0)
			for _, r := range retired {
				e.Uv(uint64(r - prev))
				prev = r
			}
			writeStableSide(e, &s.attrStableOf, &s.attrOf)
		})
		if err == nil || !strings.Contains(err.Error(), "stable map") {
			t.Errorf("%s: Load of a broken stable map: %v", name, err)
		}
	}
}

// TestLoadRejectsFormatVersion3 requires a snapshot in the previous
// format, which stored derivable sections, to fail with an error naming
// its version rather than load through a fallback.
func TestLoadRejectsFormatVersion3(t *testing.T) {
	err := loadCrafted(t, SectionMeta, func(_ *Indexes, e *storage.Encoder) {
		e.Uv(3)
		e.Uv(1) // string index
		e.Uv(0) // no typed indexes
	})
	if err == nil || !strings.Contains(err.Error(), "format version 3") {
		t.Fatalf("Load of a version-3 snapshot: %v", err)
	}
}

// TestLoadSideBytesMatchBuild pins that Load derives the same per-node
// state as Build, down to the memory it holds: the fold is one path, and
// the stored item arrays carry no append slack on either.
func TestLoadSideBytesMatchBuild(t *testing.T) {
	raw, err := datagen.Generate("xmark1", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(mustParseForTest(t, string(raw)), DefaultOptions())
	path := filepath.Join(t.TempDir(), "sides.xvi")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	built, loaded := ix.Snapshot().MemStats().SideBytes, got.Snapshot().MemStats().SideBytes
	if built != loaded {
		t.Errorf("SideBytes: Build %d, Load of its snapshot %d", built, loaded)
	}
	// Nothing derivable is stored: no statistics, no inverse maps, no
	// per-node state.
	want := []string{SectionMeta, SectionDoc, SectionStable, SectionStrTree, SectionVersion}
	for _, f := range ix.Snapshot().typedFams() {
		want = append(want, TypedSectionName(f.spec.ID))
	}
	slices.Sort(want)
	r, err := storage.OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Sections(); !slices.Equal(got, want) {
		t.Errorf("sections %v, want %v", got, want)
	}
}

// rewriteSection copies the snapshot at src to dst with section name's
// payload replaced.
func rewriteSection(t *testing.T, src, dst, name string, payload []byte) {
	t.Helper()
	r, err := storage.OpenReader(src)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	w, err := storage.NewWriter(dst)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range r.Sections() {
		body, err := r.Section(s)
		if err != nil {
			t.Fatal(err)
		}
		out, err := w.Section(s)
		if err != nil {
			t.Fatal(err)
		}
		if s == name {
			body = bytes.NewReader(payload)
		}
		if _, err := io.Copy(out, body); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
