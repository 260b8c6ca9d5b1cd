package core

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/btree"
	"repro/internal/fsm"
	"repro/internal/storage"
	"repro/internal/xmltree"
)

func epochDays(y int, m time.Month, d int) int64 {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC).Unix() / 86400
}

// TestDateIndexViaRegistration exercises the xs:date index end-to-end.
// The index exists purely through its RegisterType call — build, lookup,
// update, and verify all run the same generic code as double/dateTime.
func TestDateIndexViaRegistration(t *testing.T) {
	ix := buildPerson(t)
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
	d := ix.Doc()
	birthday := findElem(d, "birthday")
	if days, ok := dateValue(ix.Snapshot(), birthday); !ok || days != epochDays(1966, time.September, 26) {
		t.Fatalf("DateValue(<birthday>) = %d %v, want %d", days, ok, epochDays(1966, time.September, 26))
	}

	hits := rangeDate(ix.Snapshot(), epochDays(1966, time.January, 1), epochDays(1966, time.December, 31))
	if len(hits) == 0 {
		t.Fatal("RangeDate found nothing in 1966")
	}
	// The chain-lifting rule applies to dates exactly as to doubles: the
	// stored text posting plus its wrapper element.
	foundWrapper := false
	for _, h := range hits {
		if !h.IsAttr && h.Node == birthday {
			foundWrapper = true
		}
	}
	if !foundWrapper {
		t.Errorf("wrapper <birthday> not chain-lifted: %+v", hits)
	}
	if got := rangeDate(ix.Snapshot(), epochDays(1980, time.January, 1), epochDays(1990, time.January, 1)); len(got) != 0 {
		t.Errorf("empty decade returned %d hits", len(got))
	}

	// Semantically impossible dates are live fragments but never castable:
	// no posting may appear for month 13.
	doc2 := mustParseForTest(t, `<r><d>1999-13-01</d><d>2000-02-30</d><d>2000-02-29</d></r>`)
	ix2 := Build(doc2, Options{Types: []TypeID{TypeDate}})
	if err := ix2.Verify(); err != nil {
		t.Fatal(err)
	}
	all := rangeDate(ix2.Snapshot(), math.MinInt64, math.MaxInt64)
	cnt := 0
	for _, h := range all {
		if !h.IsAttr && doc2.Kind(h.Node) == xmltree.Text {
			cnt++
		}
	}
	if cnt != 1 {
		t.Errorf("castable date texts = %d, want 1 (only the real leap day)", cnt)
	}
}

func TestDateIndexFollowsUpdates(t *testing.T) {
	ix := buildPerson(t)
	d := ix.Doc()
	birthday := findElem(d, "birthday")
	text := d.FirstChild(birthday)
	if err := ix.UpdateText(text, "2001-03-15"); err != nil {
		t.Fatal(err)
	}
	if err := ix.Verify(); err != nil {
		t.Fatalf("after date update: %v", err)
	}
	if hits := rangeDate(ix.Snapshot(), epochDays(1966, time.January, 1), epochDays(1966, time.December, 31)); len(hits) != 0 {
		t.Errorf("old date still indexed: %+v", hits)
	}
	if hits := rangeDate(ix.Snapshot(), epochDays(2001, time.March, 15), epochDays(2001, time.March, 15)); len(hits) == 0 {
		t.Error("new date not indexed")
	}
	// Degrade to a non-date: the posting must disappear.
	if err := ix.UpdateText(text, "not a date"); err != nil {
		t.Fatal(err)
	}
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
	if hits := rangeDate(ix.Snapshot(), math.MinInt64, math.MaxInt64); len(hits) != 0 {
		t.Errorf("rejected value still indexed: %+v", hits)
	}
}

func TestRangeTypedGeneric(t *testing.T) {
	ix := buildPerson(t)
	// RangeTyped over the double index must agree with RangeDouble.
	want := rangeDouble(ix.Snapshot(), 40, 80, true, true)
	got := ix.Snapshot().RangeTyped(TypeDouble, btree.EncodeFloat64(40), btree.EncodeFloat64(80), true, true)
	if len(want) != len(got) {
		t.Errorf("RangeTyped %d hits, RangeDouble %d", len(got), len(want))
	}
	// Unknown or unbuilt type IDs answer empty, never panic.
	if hits := ix.Snapshot().RangeTyped(TypeID(9999), 0, math.MaxUint64, true, true); hits != nil {
		t.Errorf("unknown type returned %d hits", len(hits))
	}
	noDouble := Build(ix.Doc(), Options{String: true})
	if hits := noDouble.Snapshot().RangeTyped(TypeDouble, 0, math.MaxUint64, true, true); hits != nil {
		t.Errorf("unbuilt type returned %d hits", len(hits))
	}
}

func TestRegisterTypeValidation(t *testing.T) {
	mustPanic := func(name string, spec TypeSpec) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: RegisterType did not panic", name)
			}
		}()
		RegisterType(spec)
	}
	mustPanic("zero id", TypeSpec{Name: "x", Machine: fsm.Date(), Encode: encodeDate})
	mustPanic("no machine", TypeSpec{ID: 900, Name: "x", Encode: encodeDate})
	mustPanic("no encode", TypeSpec{ID: 900, Name: "x", Machine: fsm.Date()})
	mustPanic("dup id", TypeSpec{ID: TypeDouble, Name: "double2", Machine: fsm.Double(), Encode: encodeDouble})
	mustPanic("dup name", TypeSpec{ID: 901, Name: "double", Machine: fsm.Double(), Encode: encodeDouble})
}

// customTypeID aliases the date machine under a private ID, proving that
// an external registration travels through build, lookup, persistence,
// and verification without any core changes.
const customTypeID TypeID = 1000

func registerCustomTypeOnce(t *testing.T) {
	t.Helper()
	if _, ok := LookupType(customTypeID); ok {
		return
	}
	RegisterType(TypeSpec{
		ID:      customTypeID,
		Name:    "date-alias",
		Machine: fsm.Date(),
		Encode:  encodeDate,
	})
}

func TestCustomTypeEndToEnd(t *testing.T) {
	registerCustomTypeOnce(t)
	doc := mustParseForTest(t, personXML)
	ix := Build(doc, Options{Types: []TypeID{customTypeID}})
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
	if ids := ix.Snapshot().TypedIDs(); len(ids) != 1 || ids[0] != customTypeID {
		t.Fatalf("TypedIDs = %v", ids)
	}
	lo := btree.EncodeInt64(epochDays(1966, time.January, 1))
	hi := btree.EncodeInt64(epochDays(1966, time.December, 31))
	hits := ix.Snapshot().RangeTyped(customTypeID, lo, hi, true, true)
	if len(hits) == 0 {
		t.Fatal("custom typed index found nothing")
	}

	// Stats, memory accounting and partial saves select it by ID too.
	tree := ix.Snapshot().typedFor(customTypeID).tree
	if st, ok := ix.Snapshot().Stats().TypedFor(customTypeID); !ok || st.Castable != tree.Len() {
		t.Errorf("stats = %+v (ok %v), want Castable %d", st, ok, tree.Len())
	}
	if ms := ix.Snapshot().MemStats(); ms.TypedTreeBytes != tree.MemBytes() {
		t.Errorf("MemStats.TypedTreeBytes = %d, want the custom tree's %d", ms.TypedTreeBytes, tree.MemBytes())
	}
	part := filepath.Join(t.TempDir(), "custom.part")
	if err := ix.Snapshot().SavePartsTo(part, SaveParts{Types: []TypeID{customTypeID}}); err != nil {
		t.Fatal(err)
	}
	r, err := storage.OpenReader(part)
	if err != nil {
		t.Fatal(err)
	}
	sections := r.Sections()
	r.Close()
	if len(sections) != 1 || sections[0] != TypedSectionName(customTypeID) {
		t.Errorf("SavePartsTo wrote %v, want only %s", sections, TypedSectionName(customTypeID))
	}

	// Round-trip through the versioned per-type snapshot sections.
	path := filepath.Join(t.TempDir(), "custom.xvi")
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
	reHits := got.Snapshot().RangeTyped(customTypeID, lo, hi, true, true)
	if len(reHits) != len(hits) {
		t.Errorf("custom type survived load with %d hits, want %d", len(reHits), len(hits))
	}
	opts := got.Snapshot().Options()
	if len(opts.Types) != 1 || opts.Types[0] != customTypeID {
		t.Errorf("loaded options = %+v", opts)
	}
}

func TestLoadRejectsUnknownSnapshotVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "future.xvi")
	w, err := storage.NewWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := w.Section(SectionMeta)
	if err != nil {
		t.Fatal(err)
	}
	se := storage.NewEncoder(sec)
	se.Uv(99) // a future format version
	se.Uv(1)
	se.Uv(0)
	if err := se.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = Load(path)
	if err == nil {
		t.Fatal("loading a future-version snapshot must fail")
	}
	if !strings.Contains(err.Error(), "format version 99") {
		t.Errorf("error does not name the version: %v", err)
	}
}

func TestLoadRejectsUnknownTypeID(t *testing.T) {
	path := filepath.Join(t.TempDir(), "unknown-type.xvi")
	w, err := storage.NewWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := w.Section(SectionMeta)
	if err != nil {
		t.Fatal(err)
	}
	se := storage.NewEncoder(sec)
	se.Uv(snapshotVersion)
	se.Uv(0)
	se.Uv(1)
	se.Uv(9999) // never registered
	if err := se.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = Load(path)
	if err == nil {
		t.Fatal("loading a snapshot with an unregistered type must fail")
	}
	if !strings.Contains(err.Error(), "9999") {
		t.Errorf("error does not name the type ID: %v", err)
	}
}

// TestLoadRejectsMismatchedTypedSection covers the per-section header:
// a snapshot whose typed section does not match its manifest entry fails
// loudly instead of deserialising the wrong type's states.
func TestLoadRejectsMismatchedTypedSection(t *testing.T) {
	ix := buildPerson(t)
	dir := t.TempDir()
	good := filepath.Join(dir, "good.xvi")
	if err := ix.Save(good); err != nil {
		t.Fatal(err)
	}
	// Rewrite the snapshot, swapping the double section's payload in
	// under the dateTime section name.
	r, err := storage.OpenReader(good)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	bad := filepath.Join(dir, "bad.xvi")
	w, err := storage.NewWriter(bad)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range r.Sections() {
		src := name
		if name == TypedSectionName(TypeDateTime) {
			src = TypedSectionName(TypeDouble)
		}
		in, err := r.Section(src)
		if err != nil {
			t.Fatal(err)
		}
		out, err := w.Section(name)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1<<16)
		for {
			n, rerr := in.Read(buf)
			if n > 0 {
				if _, werr := out.Write(buf[:n]); werr != nil {
					t.Fatal(werr)
				}
			}
			if rerr != nil {
				break
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = Load(bad)
	if err == nil {
		t.Fatal("loading a snapshot with a mismatched typed section must fail")
	}
	if !strings.Contains(err.Error(), "type ID") {
		t.Errorf("error does not describe the mismatch: %v", err)
	}
}
