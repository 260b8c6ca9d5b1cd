package xmlvi_test

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	xmlvi "repro"
	"repro/internal/core"
)

const personXML = `<person><name><first>Arthur</first><family>Dent</family></name><birthday>1966-09-26</birthday><age><decades>4</decades>2<years/></age><weight><kilos>78</kilos>.<grams>230</grams></weight></person>`

func mustParse(t testing.TB, xml string) *xmlvi.Document {
	t.Helper()
	d, err := xmlvi.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestQuickstartFlow(t *testing.T) {
	d := mustParse(t, personXML)
	// Equality on strings.
	hits := d.LookupString("Arthur")
	if len(hits) == 0 {
		t.Fatal("Arthur not found")
	}
	// The paper's mixed-content semantics: age = 42 via <decades>4 + 2.
	ages, err := d.Query(`//age[. = 42]`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ages) != 1 || ages[0].Name() != "age" {
		t.Fatalf("age query = %v", ages)
	}
	// Range lookup catches the combined 78.230 weight.
	ws := d.RangeDouble(78, 79)
	foundWeight := false
	for _, r := range ws {
		if r.Name() == "weight" {
			foundWeight = true
		}
	}
	if !foundWeight {
		t.Error("weight not in range result")
	}
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestResultAccessors(t *testing.T) {
	d := mustParse(t, `<items><item id="i1"><price>9.99</price></item></items>`)
	hits := d.LookupString("i1")
	if len(hits) != 1 || !hits[0].IsAttr {
		t.Fatalf("hits = %v", hits)
	}
	r := hits[0]
	if r.Name() != "id" || r.Value() != "i1" {
		t.Errorf("attr result = %s=%s", r.Name(), r.Value())
	}
	if got := r.Path(); got != "/items/item/@id" {
		t.Errorf("Path = %q", got)
	}
	prices, _ := d.Query(`//price[. = 9.99]`)
	if len(prices) != 1 || prices[0].Path() != "/items/item/price" {
		t.Errorf("price path = %v", prices)
	}
	texts, _ := d.Query(`//price/text()`)
	if len(texts) != 1 || texts[0].Path() != "/items/item/price/text()" {
		t.Errorf("text path = %v", texts)
	}
}

func TestUpdateFlow(t *testing.T) {
	d := mustParse(t, personXML)
	family := d.Find("family")
	txt := d.Children(family)[0]
	if err := d.UpdateText(txt, "Prefect"); err != nil {
		t.Fatal(err)
	}
	if len(d.LookupString("ArthurPrefect")) == 0 {
		t.Error("combined value not updated")
	}
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteAndInsert(t *testing.T) {
	d := mustParse(t, personXML)
	if err := d.Delete(d.Find("age")); err != nil {
		t.Fatal(err)
	}
	if hits, _ := d.Query(`//age[. = 42]`); len(hits) != 0 {
		t.Error("deleted age still queryable")
	}
	person := d.Find("person")
	at, err := d.InsertXML(person, 0, `<email kind="home">arthur@example.org</email><height>1.85</height>`)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name(at) != "email" {
		t.Errorf("first inserted = %q", d.Name(at))
	}
	if hits := d.LookupDouble(1.85); len(hits) == 0 {
		t.Error("inserted height not indexed")
	}
	if hits := d.LookupString("arthur@example.org"); len(hits) == 0 {
		t.Error("inserted email not indexed")
	}
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertXML(person, 0, ``); err == nil {
		t.Error("empty fragment must fail")
	}
	if _, err := d.InsertXML(person, 0, `<unclosed>`); err == nil {
		t.Error("bad fragment must fail")
	}
}

func TestDateTimeRange(t *testing.T) {
	d := mustParse(t, `<log>
	  <entry><at>2026-06-11T10:00:00Z</at></entry>
	  <entry><at>2026-06-11T12:00:00Z</at></entry>
	  <entry><at>2026-06-12T09:00:00Z</at></entry>
	</log>`)
	from := time.Date(2026, 6, 11, 0, 0, 0, 0, time.UTC)
	to := time.Date(2026, 6, 11, 23, 59, 59, 0, time.UTC)
	hits := d.RangeDateTime(from, to)
	ats := 0
	for _, r := range hits {
		if r.Name() == "at" {
			ats++
		}
	}
	if ats != 2 {
		t.Errorf("found %d <at> in range, want 2", ats)
	}
	at := d.Find("at")
	v, ok := d.DateTimeValue(at)
	if !ok || !v.Equal(time.Date(2026, 6, 11, 10, 0, 0, 0, time.UTC)) {
		t.Errorf("DateTimeValue = %v %v", v, ok)
	}
}

func TestDateRange(t *testing.T) {
	d := mustParse(t, `<people>
	  <person><name>a</name><birthday>1966-09-26</birthday></person>
	  <person><name>b</name><birthday>1971-01-05</birthday></person>
	  <person><name>c</name><birthday>1985-12-31</birthday></person>
	</people>`)
	from := time.Date(1960, 1, 1, 0, 0, 0, 0, time.UTC)
	to := time.Date(1975, 1, 1, 0, 0, 0, 0, time.UTC)
	birthdays := 0
	for _, r := range d.RangeDate(from, to) {
		if r.Name() == "birthday" {
			birthdays++
		}
	}
	if birthdays != 2 {
		t.Errorf("found %d <birthday> in range, want 2", birthdays)
	}
	b := d.Find("birthday")
	v, ok := d.DateValue(b)
	if !ok || !v.Equal(time.Date(1966, 9, 26, 0, 0, 0, 0, time.UTC)) {
		t.Errorf("DateValue = %v %v", v, ok)
	}
	// The date index answers xs:date XPath predicates.
	hits, err := d.Query(`//person[birthday < xs:date("1970-01-01")]`)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || d.StringValue(hits[0].Node) != "a1966-09-26" {
		t.Errorf("xs:date query hits = %v", hits)
	}
}

func TestSaveLoad(t *testing.T) {
	d := mustParse(t, personXML)
	path := filepath.Join(t.TempDir(), "person.xvi")
	if err := d.Save(path); err != nil {
		t.Fatal(err)
	}
	d2, err := xmlvi.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Verify(); err != nil {
		t.Fatal(err)
	}
	if len(d2.LookupString("Arthur")) != len(d.LookupString("Arthur")) {
		t.Error("lookup differs after reload")
	}
}

func TestXMLRoundTrip(t *testing.T) {
	d := mustParse(t, personXML)
	out, err := d.XML()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := xmlvi.Parse(out)
	if err != nil {
		t.Fatal(err)
	}
	if d2.StringValue(d2.Root()) != d.StringValue(d.Root()) {
		t.Error("round trip changed content")
	}
	var sb strings.Builder
	if err := d.WriteXML(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(out) {
		t.Error("WriteXML differs from XML")
	}
}

func TestTransactions(t *testing.T) {
	d := mustParse(t, personXML)
	tx := d.Begin()
	first := d.Children(d.Find("first"))[0]
	if err := tx.SetText(first, "Ford"); err != nil {
		t.Fatal(err)
	}
	// Conflicting writer sees ErrConflict.
	tx2 := d.Begin()
	if err := tx2.SetText(first, "Zaphod"); err != xmlvi.ErrConflict {
		t.Errorf("conflict = %v", err)
	}
	tx2.Abort()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(d.LookupString("FordDent")) == 0 {
		t.Error("txn update not visible")
	}
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestOptionsSelectIndexes(t *testing.T) {
	d, err := xmlvi.ParseWithOptions([]byte(personXML), xmlvi.Options{String: true})
	if err != nil {
		t.Fatal(err)
	}
	if hits := d.RangeDouble(0, 1000); len(hits) != 0 {
		t.Error("double index should be absent")
	}
	if len(d.LookupString("Arthur")) == 0 {
		t.Error("string index should be present")
	}
	d, err = xmlvi.ParseWithOptions([]byte(personXML), xmlvi.Options{Types: []core.TypeID{core.TypeDate}})
	if err != nil {
		t.Fatal(err)
	}
	if hits := d.LookupString("Arthur"); len(hits) != 0 {
		t.Error("string index should be absent")
	}
	day := time.Date(1966, 9, 26, 0, 0, 0, 0, time.UTC)
	if hits := d.RangeDate(day, day); len(hits) == 0 {
		t.Error("date index should be present")
	}
}

// TestOptionsRejectUnregisteredType: a typed index ID nothing registered
// fails the build instead of silently leaving the index out.
func TestOptionsRejectUnregisteredType(t *testing.T) {
	_, err := xmlvi.ParseWithOptions([]byte(personXML), xmlvi.Options{Types: []core.TypeID{core.TypeDouble, 999}})
	if err == nil || !strings.Contains(err.Error(), "999") {
		t.Fatalf("err = %v, want an error naming type ID 999", err)
	}
}

func TestParseErrorsSurface(t *testing.T) {
	if _, err := xmlvi.ParseString(`<a>`); err == nil {
		t.Error("bad XML must fail")
	}
	d := mustParse(t, personXML)
	if _, err := d.Query(`//[bad`); err == nil {
		t.Error("bad query must fail")
	}
}

func TestStats(t *testing.T) {
	d := mustParse(t, personXML)
	s := d.Stats()
	if s.Texts != 8 || s.Elements != 11 {
		t.Errorf("stats = %+v", s)
	}
	if dbl, _ := s.TypedFor(core.TypeDouble); dbl.NonLeaf != 2 {
		t.Errorf("non-leaf doubles = %d", dbl.NonLeaf)
	}
}

// TestRangeDoubleNaNBounds pins the NaN guard of the double range
// lookups: XPath comparisons against NaN select nothing, whereas
// EncodeFloat64(NaN) is a key outside [-Inf, +Inf] that would turn a
// one-sided range into a scan of half the key space.
func TestRangeDoubleNaNBounds(t *testing.T) {
	d := mustParse(t, personXML)
	nan := math.NaN()
	for _, c := range [][2]float64{{nan, 100}, {0, nan}, {nan, nan}} {
		if hits := d.RangeDouble(c[0], c[1]); len(hits) != 0 {
			t.Errorf("RangeDouble(%v, %v) = %d hits, want 0", c[0], c[1], len(hits))
		}
		if hits := d.RangeDoubleExclusive(c[0], c[1]); len(hits) != 0 {
			t.Errorf("RangeDoubleExclusive(%v, %v) = %d hits, want 0", c[0], c[1], len(hits))
		}
	}
	if hits := d.LookupDouble(nan); len(hits) != 0 {
		t.Errorf("LookupDouble(NaN) = %d hits, want 0", len(hits))
	}
	// A plain range still works beside the guard.
	if hits := d.RangeDouble(41, 43); len(hits) == 0 {
		t.Error("RangeDouble(41, 43) found nothing")
	}
}
