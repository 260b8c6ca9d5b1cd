package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/vhash"
	"repro/internal/xmlparse"
	"repro/internal/xmltree"
)

const personXML = `<person><name><first>Arthur</first><family>Dent</family></name><birthday>1966-09-26</birthday><age><decades>4</decades>2<years/></age><weight><kilos>78</kilos>.<grams>230</grams></weight></person>`

func buildPerson(t testing.TB) *Indexes {
	t.Helper()
	doc, err := xmlparse.ParseString(personXML)
	if err != nil {
		t.Fatal(err)
	}
	return Build(doc, DefaultOptions())
}

func findElem(d *xmltree.Doc, tag string) xmltree.NodeID {
	for i := 0; i < d.NumNodes(); i++ {
		if d.Kind(xmltree.NodeID(i)) == xmltree.Element && d.Name(xmltree.NodeID(i)) == tag {
			return xmltree.NodeID(i)
		}
	}
	return xmltree.InvalidNode
}

func TestBuildVerifiesOnPerson(t *testing.T) {
	ix := buildPerson(t)
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestHashesMatchPaperSemantics(t *testing.T) {
	ix := buildPerson(t)
	d := ix.Doc()
	name := findElem(d, "name")
	if got, want := ix.Snapshot().NodeHash(name), vhash.HashString("ArthurDent"); got != want {
		t.Errorf("h<name> = %#x, want H(ArthurDent) = %#x", got, want)
	}
	person := findElem(d, "person")
	if got, want := ix.Snapshot().NodeHash(person), vhash.HashString("ArthurDent1966-09-264278.230"); got != want {
		t.Errorf("h<person> = %#x", got)
	}
}

func TestDoubleValuesOnPerson(t *testing.T) {
	ix := buildPerson(t)
	d := ix.Doc()
	// <age> = mixed content "4"+"2" = 42.
	if v, ok := doubleValue(ix.Snapshot(), findElem(d, "age")); !ok || v != 42 {
		t.Errorf("double(<age>) = %v %v, want 42", v, ok)
	}
	// <weight> = "78"+"."+"230" = 78.230.
	if v, ok := doubleValue(ix.Snapshot(), findElem(d, "weight")); !ok || v != 78.230 {
		t.Errorf("double(<weight>) = %v %v, want 78.23", v, ok)
	}
	// <kilos> = 78.
	if v, ok := doubleValue(ix.Snapshot(), findElem(d, "kilos")); !ok || v != 78 {
		t.Errorf("double(<kilos>) = %v %v", v, ok)
	}
	// <name> is not a double.
	if _, ok := doubleValue(ix.Snapshot(), findElem(d, "name")); ok {
		t.Error("double(<name>) should not exist")
	}
	// <person> concatenates to a non-double.
	if _, ok := doubleValue(ix.Snapshot(), findElem(d, "person")); ok {
		t.Error("double(<person>) should not exist")
	}
}

func TestDateTimeValueOnPerson(t *testing.T) {
	ix := buildPerson(t)
	d := ix.Doc()
	// <birthday>1966-09-26</birthday> is only a date (no time part) — a
	// live but not castable dateTime fragment.
	birthday := findElem(d, "birthday")
	if _, ok := dateTimeValue(ix.Snapshot(), birthday); ok {
		t.Error("plain date must not cast to dateTime")
	}
	// Build a document with a true dateTime.
	doc, _ := xmlparse.ParseString(`<log><at>2026-06-11T12:30:45Z</at></log>`)
	ix2 := Build(doc, DefaultOptions())
	if err := ix2.Verify(); err != nil {
		t.Fatal(err)
	}
	at := findElem(doc, "at")
	if v, ok := dateTimeValue(ix2.Snapshot(), at); !ok || v != 1781181045000 {
		t.Errorf("dateTime(<at>) = %v %v", v, ok)
	}
	// The text node, <at>, <log>, and the document node all have this
	// string value (XDM concatenation semantics), so all four are hits.
	got := rangeDateTime(ix2.Snapshot(), 1781181045000, 1781181045000)
	if len(got) != 4 {
		t.Errorf("RangeDateTime hits = %d, want 4", len(got))
	}
}

func TestLookupStringPaperQueries(t *testing.T) {
	ix := buildPerson(t)
	d := ix.Doc()
	// //person[first/text()="Arthur"]: the text node under <first>.
	hits := ix.Snapshot().LookupString("Arthur")
	foundText, foundFirst := false, false
	for _, p := range hits {
		if p.IsAttr {
			continue
		}
		switch {
		case d.Kind(p.Node) == xmltree.Text:
			foundText = true
		case d.Name(p.Node) == "first":
			foundFirst = true
		}
	}
	if !foundText || !foundFirst {
		t.Errorf("LookupString(Arthur) = %v", hits)
	}
	// fn:data(name)="ArthurDent" finds the <name> element.
	hits = ix.Snapshot().LookupString("ArthurDent")
	found := false
	for _, p := range hits {
		if !p.IsAttr && d.Name(p.Node) == "name" {
			found = true
		}
	}
	if !found {
		t.Error("LookupString(ArthurDent) missed <name>")
	}
	if hits := ix.Snapshot().LookupString("NoSuchValue"); len(hits) != 0 {
		t.Errorf("LookupString(NoSuchValue) = %v", hits)
	}
}

func TestLookupDoubleEqIntroExample(t *testing.T) {
	// The paper's introduction: all of these <age> variants equal 42.
	xml := `<people>
	  <person><age>42</age></person>
	  <person><age>42.0</age></person>
	  <person><age> +4.2E1</age></person>
	  <person><age> <decades>4</decades>2<years/></age></person>
	  <person><age>41</age></person>
	</people>`
	doc, err := xmlparse.ParseWith([]byte(xml), xmlparse.Options{StripWhitespaceText: true})
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(doc, DefaultOptions())
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
	d := ix.Doc()
	ages := 0
	for _, p := range lookupDoubleEq(ix.Snapshot(), 42) {
		if !p.IsAttr && d.Kind(p.Node) == xmltree.Element && d.Name(p.Node) == "age" {
			ages++
		}
	}
	if ages != 4 {
		t.Errorf("found %d <age> elements equal to 42, want 4", ages)
	}
}

func TestRangeDouble(t *testing.T) {
	xml := `<prices><p>10</p><p>20.5</p><p>30</p><p>notanumber</p><p>25e0</p></prices>`
	doc, _ := xmlparse.ParseString(xml)
	ix := Build(doc, DefaultOptions())
	d := ix.Doc()
	values := func(ps []Posting) []float64 {
		var out []float64
		for _, p := range ps {
			if !p.IsAttr && d.Kind(p.Node) == xmltree.Element && d.Name(p.Node) == "p" {
				v, _ := doubleValue(ix.Snapshot(), p.Node)
				out = append(out, v)
			}
		}
		return out
	}
	got := values(rangeDouble(ix.Snapshot(), 15, 30, true, true))
	want := []float64{20.5, 25, 30}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("range [15,30] = %v, want %v", got, want)
	}
	got = values(rangeDouble(ix.Snapshot(), 20.5, 30, false, false))
	if fmt.Sprint(got) != fmt.Sprint([]float64{25}) {
		t.Errorf("range (20.5,30) = %v", got)
	}
	// Index agrees with the scan baseline.
	a := rangeDouble(ix.Snapshot(), 15, 30, true, true)
	b := scanDoubleRange(ix.Snapshot(), 15, 30)
	if len(a) != len(b) {
		t.Errorf("index %d hits, scan %d", len(a), len(b))
	}
}

func TestUpdateTextPaperScenario(t *testing.T) {
	ix := buildPerson(t)
	d := ix.Doc()
	family := findElem(d, "family")
	txt := d.FirstChild(family)
	if err := ix.UpdateText(txt, "Prefect"); err != nil {
		t.Fatal(err)
	}
	if err := ix.Verify(); err != nil {
		t.Fatalf("after update: %v", err)
	}
	if got, want := ix.Snapshot().NodeHash(findElem(d, "name")), vhash.HashString("ArthurPrefect"); got != want {
		t.Errorf("h<name> after update = %#x, want %#x", got, want)
	}
	if hits := ix.Snapshot().LookupString("ArthurPrefect"); len(hits) == 0 {
		t.Error("updated value not findable")
	}
	if hits := ix.Snapshot().LookupString("ArthurDent"); len(hits) != 0 {
		t.Error("old value still findable")
	}
}

func TestUpdateFlipsDoubleValue(t *testing.T) {
	ix := buildPerson(t)
	d := ix.Doc()
	// Change "230" grams to "5": weight becomes 78.5.
	grams := findElem(d, "grams")
	if err := ix.UpdateText(d.FirstChild(grams), "5"); err != nil {
		t.Fatal(err)
	}
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
	if v, ok := doubleValue(ix.Snapshot(), findElem(d, "weight")); !ok || v != 78.5 {
		t.Errorf("weight after update = %v %v, want 78.5", v, ok)
	}
	// Change "." to "x": weight stops being a double at all.
	weight := findElem(d, "weight")
	var dot xmltree.NodeID = xmltree.InvalidNode
	for c := d.FirstChild(weight); c != xmltree.InvalidNode; c = d.NextSibling(c) {
		if d.Kind(c) == xmltree.Text {
			dot = c
		}
	}
	if err := ix.UpdateText(dot, "x"); err != nil {
		t.Fatal(err)
	}
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
	if _, ok := doubleValue(ix.Snapshot(), findElem(d, "weight")); ok {
		t.Error("weight should no longer cast")
	}
	// And back: "." restores 78.5.
	if err := ix.UpdateText(dot, "."); err != nil {
		t.Fatal(err)
	}
	if v, ok := doubleValue(ix.Snapshot(), findElem(d, "weight")); !ok || v != 78.5 {
		t.Errorf("weight restored = %v %v", v, ok)
	}
}

func TestUpdateAttr(t *testing.T) {
	doc, _ := xmlparse.ParseString(`<item id="i1" price="12.5">x</item>`)
	ix := Build(doc, DefaultOptions())
	item := xmltree.NodeID(1)
	a := doc.FindAttr(item, "price")
	if hits := rangeDouble(ix.Snapshot(), 12.5, 12.5, true, true); len(hits) != 1 || !hits[0].IsAttr {
		t.Fatalf("attr not in double index: %v", hits)
	}
	if err := ix.UpdateAttr(a, "99"); err != nil {
		t.Fatal(err)
	}
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
	if hits := rangeDouble(ix.Snapshot(), 12.5, 12.5, true, true); len(hits) != 0 {
		t.Error("old attr value still indexed")
	}
	if hits := rangeDouble(ix.Snapshot(), 99, 99, true, true); len(hits) != 1 {
		t.Error("new attr value not indexed")
	}
	if hits := ix.Snapshot().LookupString("99"); len(hits) != 1 || !hits[0].IsAttr {
		t.Errorf("LookupString(99) = %v", hits)
	}
}

func TestBatchUpdateMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	doc := randomNumericDoc(t, rng, 200)
	ix := Build(doc, DefaultOptions())
	var texts []xmltree.NodeID
	for i := 0; i < doc.NumNodes(); i++ {
		if doc.Kind(xmltree.NodeID(i)) == xmltree.Text {
			texts = append(texts, xmltree.NodeID(i))
		}
	}
	for round := 0; round < 10; round++ {
		k := 1 + rng.Intn(20)
		updates := make([]TextUpdate, 0, k)
		for j := 0; j < k; j++ {
			updates = append(updates, TextUpdate{
				Node:  texts[rng.Intn(len(texts))],
				Value: randomValue(rng),
			})
		}
		if err := ix.UpdateTexts(updates); err != nil {
			t.Fatal(err)
		}
		if err := ix.Verify(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

func TestDeleteSubtreeMaintainsIndexes(t *testing.T) {
	ix := buildPerson(t)
	d := ix.Doc()
	if err := ix.DeleteSubtree(findElem(d, "age")); err != nil {
		t.Fatal(err)
	}
	if err := ix.Verify(); err != nil {
		t.Fatalf("after delete: %v", err)
	}
	// 42 is gone from the double index.
	for _, p := range lookupDoubleEq(ix.Snapshot(), 42) {
		if !p.IsAttr && d.Kind(p.Node) == xmltree.Element {
			t.Errorf("deleted <age> still found: %v", p)
		}
	}
	// Root hash reflects the shorter value.
	if got, want := ix.Snapshot().NodeHash(0), vhash.HashString("ArthurDent1966-09-2678.230"); got != want {
		t.Errorf("root hash after delete = %#x, want %#x", got, want)
	}
	// Weight still queryable.
	if hits := lookupDoubleEq(ix.Snapshot(), 78.230); len(hits) == 0 {
		t.Error("weight lost after unrelated delete")
	}
}

func TestInsertChildrenMaintainsIndexes(t *testing.T) {
	ix := buildPerson(t)
	d := ix.Doc()
	b := xmltree.NewBuilder()
	b.StartElement("height")
	b.Attribute("unit", "cm")
	b.StartElement("meters")
	b.Text("1")
	b.EndElement()
	b.Text(".")
	b.StartElement("cm")
	b.Text("85")
	b.EndElement()
	b.EndElement()
	frag, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	person := findElem(d, "person")
	at, err := ix.InsertChildren(person, 4, frag)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Verify(); err != nil {
		t.Fatalf("after insert: %v", err)
	}
	// The commit published a new version; d still reads the pre-insert
	// document, so re-fetch before inspecting the inserted node.
	d = ix.Doc()
	if d.Name(at) != "height" {
		t.Fatalf("inserted node = %q", d.Name(at))
	}
	// The inserted mixed-content height casts to 1.85.
	if v, ok := doubleValue(ix.Snapshot(), at); !ok || v != 1.85 {
		t.Errorf("double(<height>) = %v %v, want 1.85", v, ok)
	}
	if hits := lookupDoubleEq(ix.Snapshot(), 1.85); len(hits) == 0 {
		t.Error("inserted value not in double index")
	}
	if hits := ix.Snapshot().LookupString("cm"); len(hits) != 1 || !hits[0].IsAttr {
		t.Errorf("inserted attr not indexed: %v", hits)
	}
	// Root hash includes the new content.
	if got, want := ix.Snapshot().NodeHash(0), vhash.HashString("ArthurDent1966-09-264278.2301.85"); got != want {
		t.Errorf("root hash after insert = %#x, want %#x", got, want)
	}
}

// TestRandomizedMixedOperations interleaves value updates, deletions, and
// insertions, verifying full consistency after every operation.
func TestRandomizedMixedOperations(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 8; trial++ {
		doc := randomNumericDoc(t, rng, 120)
		ix := Build(doc, DefaultOptions())
		if err := ix.Verify(); err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 25; op++ {
			d := ix.Doc()
			switch rng.Intn(4) {
			case 0, 1: // text update
				var texts []xmltree.NodeID
				for i := 0; i < d.NumNodes(); i++ {
					if d.Kind(xmltree.NodeID(i)) == xmltree.Text {
						texts = append(texts, xmltree.NodeID(i))
					}
				}
				if len(texts) == 0 {
					continue
				}
				if err := ix.UpdateText(texts[rng.Intn(len(texts))], randomValue(rng)); err != nil {
					t.Fatal(err)
				}
			case 2: // delete
				if d.NumNodes() < 4 {
					continue
				}
				n := xmltree.NodeID(1 + rng.Intn(d.NumNodes()-1))
				if err := ix.DeleteSubtree(n); err != nil {
					t.Fatal(err)
				}
			case 3: // insert
				var elems []xmltree.NodeID
				for i := 0; i < d.NumNodes(); i++ {
					k := d.Kind(xmltree.NodeID(i))
					if k == xmltree.Element || k == xmltree.Document {
						elems = append(elems, xmltree.NodeID(i))
					}
				}
				p := elems[rng.Intn(len(elems))]
				pos := 0
				if nc := d.NumChildren(p); nc > 0 {
					pos = rng.Intn(nc + 1)
				}
				if _, err := ix.InsertChildren(p, pos, randomNumericDoc(t, rng, 8)); err != nil {
					t.Fatal(err)
				}
			}
			if err := ix.Verify(); err != nil {
				t.Fatalf("trial %d op %d: %v", trial, op, err)
			}
		}
	}
}

// TestStableIDsSurviveStructuralChurn: postings resolved after deletions
// still point at the right nodes.
func TestStableIDsSurviveStructuralChurn(t *testing.T) {
	xml := `<r><a>10</a><b>20</b><c>30</c></r>`
	doc, _ := xmlparse.ParseString(xml)
	ix := Build(doc, DefaultOptions())
	d := ix.Doc()
	// Delete <a>; <c>'s posting must still resolve to the element whose
	// value is 30.
	if err := ix.DeleteSubtree(findElem(d, "a")); err != nil {
		t.Fatal(err)
	}
	d = ix.Doc() // the delete published a new version
	hits := lookupDoubleEq(ix.Snapshot(), 30)
	found := false
	for _, p := range hits {
		if !p.IsAttr && d.Kind(p.Node) == xmltree.Element && d.Name(p.Node) == "c" {
			found = true
		}
	}
	if !found {
		t.Errorf("posting for <c> broken after delete: %v", hits)
	}
}

func TestStatsOnPerson(t *testing.T) {
	ix := buildPerson(t)
	s := ix.Snapshot().Stats()
	if s.Texts != 8 {
		t.Errorf("Texts = %d, want 8", s.Texts)
	}
	dbl, _ := s.TypedFor(TypeDouble)
	if dbl.LiveTexts != 5 { // "4","2","78",".","230" are live; "Arthur","Dent","1966-09-26" are not
		t.Errorf("double LiveTexts = %d, want 5", dbl.LiveTexts)
	}
	// Combined (mixed-content) castable elements: <age> (4+2) and
	// <weight> (78+.+230); single-text wrappers like <kilos> don't count.
	if dbl.NonLeaf != 2 {
		t.Errorf("double NonLeaf = %d, want 2", dbl.NonLeaf)
	}
	if s.StringEntries == 0 || s.StringBytes == 0 || dbl.Bytes == 0 {
		t.Error("size estimates must be positive")
	}
}

func TestPartialOptions(t *testing.T) {
	doc, _ := xmlparse.ParseString(personXML)
	ix := Build(doc, Options{String: true})
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
	if rangeDouble(ix.Snapshot(), 0, 100, true, true) != nil {
		t.Error("double lookups must be empty without the double index")
	}
	doc2, _ := xmlparse.ParseString(personXML)
	ix2 := Build(doc2, Options{Types: []TypeID{TypeDouble}})
	if err := ix2.Verify(); err != nil {
		t.Fatal(err)
	}
	if ix2.Snapshot().LookupString("Arthur") != nil {
		t.Error("string lookups must be empty without the string index")
	}
	if len(lookupDoubleEq(ix2.Snapshot(), 42)) == 0 {
		t.Error("double index alone must work")
	}
}

// randomNumericDoc builds a random document biased toward numeric and
// date-like content so the typed indices see plenty of live fragments.
func randomNumericDoc(t testing.TB, rng *rand.Rand, approxNodes int) *xmltree.Doc {
	t.Helper()
	b := xmltree.NewBuilder()
	b.StartElement("root")
	n := 0
	var gen func(depth int)
	gen = func(depth int) {
		for n < approxNodes {
			switch r := rng.Intn(10); {
			case r < 4 && depth < 5:
				n++
				b.StartElement([]string{"item", "price", "qty", "note"}[rng.Intn(4)])
				if rng.Intn(4) == 0 {
					b.Attribute("v", randomValue(rng))
				}
				gen(depth + 1)
				b.EndElement()
			case r < 9:
				n++
				b.Text(randomValue(rng))
				if rng.Intn(3) > 0 {
					return
				}
			default:
				n++
				b.Comment("c")
				return
			}
		}
	}
	gen(1)
	b.EndElement()
	doc, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func randomValue(rng *rand.Rand) string {
	switch rng.Intn(8) {
	case 0:
		return fmt.Sprintf("%d", rng.Intn(1000))
	case 1:
		return fmt.Sprintf("%.3f", rng.Float64()*100)
	case 2:
		return fmt.Sprintf("%dE%d", rng.Intn(100), rng.Intn(5))
	case 3:
		return "."
	case 4:
		return fmt.Sprintf("%04d-%02d-%02dT%02d:%02d:%02dZ", 1990+rng.Intn(40), 1+rng.Intn(12), 1+rng.Intn(28), rng.Intn(24), rng.Intn(60), rng.Intn(60))
	case 5:
		return strings.Repeat("word ", 1+rng.Intn(3))
	case 6:
		return "x" + fmt.Sprint(rng.Intn(100))
	default:
		return ""
	}
}

func BenchmarkBuildPersonAllIndexes(b *testing.B) {
	doc, _ := xmlparse.ParseString(personXML)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(doc, DefaultOptions())
	}
}
