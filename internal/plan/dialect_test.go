package plan

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/xmlparse"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// The dialect corpus: small documents, each with the queries the xpath
// package's tests pin by hit count, here held to the scan oracle under
// every planning mode — the paper's examples (mixed-content values,
// fn:data), every comparison operator on numbers, dates and strings,
// attribute and text steps, wildcards, rooted paths, existential
// comparison, and the contains()/starts-with() text predicates.

const personXML = `<person><name><first>Arthur</first><family>Dent</family></name><birthday>1966-09-26</birthday><age><decades>4</decades>2<years/></age><weight><kilos>78</kilos>.<grams>230</grams></weight></person>`

var dialectCorpus = []struct {
	xml     string
	queries []string
}{
	{personXML, []string{
		`//person[first/text()="Arthur"]`,
		`//person[name/first/text()="Arthur"]`,
		`//*[fn:data(name)="ArthurDent"]`,
		`//kilos[. = 78]`,
		`//weight[. = 78.230]`,
		`//family[. = "Dent"]`,
	}},
	{`<people>
	  <person><age>42</age></person>
	  <person><age>42.0</age></person>
	  <person><age> +4.2E1</age></person>
	  <person><age><decades>4</decades>2<years/></age></person>
	  <person><age>41</age></person>
	  <person><info><age>42</age></info></person>
	</people>`, []string{
		`//person[.//age = 42]`,
	}},
	{`<items>
	  <item><price>5</price></item>
	  <item><price>15.5</price></item>
	  <item><price>25</price></item>
	  <item><price>not a price</price></item>
	</items>`, []string{
		`//item[price > 10]`,
		`//item[price >= 15.5]`,
		`//item[price < 10]`,
		`//item[price <= 5]`,
		`//item[price = 25]`,
		`//item[price > 10 and price < 20]`,
		`//item[price != 5]`,
	}},
	{`<people>
	  <person><birthday>1966-09-26</birthday></person>
	  <person><birthday>1971-01-05</birthday></person>
	  <person><birthday>1985-12-31</birthday></person>
	  <person><birthday>yesterday</birthday></person>
	  <person><birthday>1999-13-01</birthday></person>
	</people>`, []string{
		`//person[birthday = xs:date("1966-09-26")]`,
		`//person[birthday < xs:date("1970-01-01")]`,
		`//person[birthday <= xs:date("1971-01-05")]`,
		`//person[birthday > xs:date("1966-09-26")]`,
		`//person[birthday >= xs:date("1800-01-01")]`,
		`//person[birthday != xs:date("1966-09-26")]`,
		`//person[birthday = xs:date("2020-02-02")]`,
	}},
	{`<people>
	  <person><birthday>1966-09-26</birthday><age>42</age></person>
	  <person><birthday>1985-12-31</birthday><age>17</age></person>
	</people>`, []string{
		`//person[birthday < xs:date("1970-01-01")]`,
		`//person[age > 40]`,
		`//person[birthday = "1966-09-26"]`,
	}},
	{`<catalog>
	  <item id="i1" price="9.99"><name>foo</name></item>
	  <item id="i2" price="19.99"><name>bar</name></item>
	</catalog>`, []string{
		`//item[@id="i2"]`,
		`//item[@price < 10]`,
		`//item/@id`,
		`//item/@id[. = "i1"]`,
	}},
	{`<r><a><x>1</x></a><b><x>2</x></b></r>`, []string{`//*[x = 2]`, `/r/*/x`}},
	{`<lib><shelf><box><book>42</book></box></shelf><shelf><book>7</book></shelf></lib>`, []string{
		`//shelf[.//book = 42]`, `//shelf[book = 42]`, `//shelf[book = 7]`,
	}},
	{`<s><person><name><first>Ann</first></name></person><person><name><first>Bob</first></name></person></s>`, []string{
		`//person[name/first = "Bob"]`, `//person[name/first/text() = "Ann"]`,
	}},
	{`<r><i><p>5</p><q>alpha</q></i><i><p>5</p><q>beta</q></i><i><p>6</p><q>alpha</q></i></r>`, []string{
		`//i[p = 5 and q = "alpha"]`, `//i[p = 5][q = "alpha"]`,
	}},
	{`<r><person><age>10</age><age>42</age></person></r>`, []string{`//person[age = 42]`, `//person[age != 10]`}},
	// A multi-valued operand: the first c holds no v in [10, 20], yet 25
	// satisfies the lower bound and 5 the upper, so both queries select
	// it. Folding the two comparisons into one interval would lose it.
	{`<r><c><v>5</v><v>25</v></c><c><v>15</v></c><c><v>5</v></c></r>`, []string{
		`//c[v >= 10 and v <= 20]`, `//c[v >= 10][v <= 20]`,
	}},
	{`<r><v>42</v><v>42.0</v><v> +4.2E1</v><v>0042</v><v>42x</v></r>`, []string{`//v[. = 42]`}},
	{`<r><w>apple</w><w>banana</w><w>cherry</w></r>`, []string{`//w[. > "avocado"]`}},
	{`<a><b><a><c>x</c></a></b></a>`, []string{`/a[.//c = "x"]`, `//a[.//c = "x"]`}},
	{`<r><k>42</k></r>`, []string{`//k[fn:data(.) = 42]`}},
	{`<r><i a="1" b="2"/><i c="3"/></r>`, []string{`//i/@*`}},
	{`<r><i a="7"/><i b="7"/></r>`, []string{`//i[@* = 7]`}},
	{`<r><a>1</a></r>`, []string{
		`//missing`, `/wrongroot/x`, `//r[. = "nothing"]`, `//r/@absent`, `//r[missing = 1]`,
	}},
	{`<site><person id="person1"><name>Arthur Dent</name><mail>mailto:art@ex</mail></person>` +
		`<person id="person2"><name>Ford Prefect</name><mail>mailto:ford@ex</mail></person></site>`, []string{
		`//person[contains(name/text(), "rthu")]`,
		`//person[contains(mail, "mailto:")]`,
		`//name/text()[contains(., "Dent")]`,
		`//person[starts-with(@id, "person2")]`,
		`//person/@id[starts-with(., "person")]`,
		`//person[starts-with(name/text(), "Dent")]`,
		`//person[contains(mail, "mailto:") and @id = "person1"]`,
	}},
	{`<r><p><w>abc</w><w>xyz</w></p></r>`, []string{`//p[contains(w, "xyz")]`}},
	{`<r><a>héllo wörld</a><b>日本語テキスト</b><c></c></r>`, []string{
		`//a/text()[contains(., "")]`,
		`//a/text()[starts-with(., "")]`,
		`//b[contains(., "本語テ")]`,
		`//b[starts-with(., "日本")]`,
	}},
}

// checkPlannedEquivalence runs one query under every planning mode
// against the scan oracle.
func checkPlannedEquivalence(t *testing.T, label string, ix *core.Snapshot, q string) {
	t.Helper()
	path, err := xpath.Parse(q)
	if err != nil {
		t.Fatalf("%s: parse %q: %v", label, q, err)
	}
	oracle := xpath.Evaluate(ix.Doc(), path)
	for _, mode := range allModes {
		got, pl, err := Run(ix, path, mode)
		if err != nil {
			t.Fatalf("%s %q mode=%s: %v", label, q, mode, err)
		}
		if !postingsEqual(got, oracle) {
			t.Errorf("%s %q mode=%s: got %d hits, oracle %d\nplan:\n%s", label, q, mode, len(got), len(oracle), pl)
		}
	}
}

// buildDialectDoc indexes one document, optionally with the
// substring index enabled.
func buildDialectDoc(t *testing.T, xml string, opts core.Options, substring bool) *core.Snapshot {
	t.Helper()
	doc, err := xmlparse.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	ix := core.Build(doc, opts)
	if substring {
		ix.EnableSubstring()
	}
	return ix.Snapshot()
}

// TestPlannedEquivalenceDialect holds the dialect corpus to the scan
// oracle with every index built, the substring index included.
func TestPlannedEquivalenceDialect(t *testing.T) {
	for i, c := range dialectCorpus {
		ix := buildDialectDoc(t, c.xml, core.DefaultOptions(), true)
		for _, q := range c.queries {
			checkPlannedEquivalence(t, fmt.Sprintf("doc %d", i), ix, q)
		}
	}
}

// TestPlannedEquivalenceMissingIndex runs the dialect corpus against
// index sets that lack the index a predicate needs: a string-only build
// (no typed index for numeric and date ranges) and a typed-only build
// (no string index for equality). A missing index must fall back to
// scanning, never answer from an empty candidate set.
func TestPlannedEquivalenceMissingIndex(t *testing.T) {
	builds := []struct {
		name string
		opts core.Options
	}{
		{"string-only", core.Options{String: true}},
		{"typed-only", core.Options{Double: true, Date: true}},
	}
	for _, b := range builds {
		for i, c := range dialectCorpus {
			ix := buildDialectDoc(t, c.xml, b.opts, false)
			for _, q := range c.queries {
				checkPlannedEquivalence(t, fmt.Sprintf("%s doc %d", b.name, i), ix, q)
			}
		}
	}
}

// TestPlannedEquivalenceRandomized is the randomized form of the
// property: on random documents and random queries, every planning mode
// returns exactly what scanning returns.
func TestPlannedEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	tags := []string{"a", "b", "c", "item", "price"}
	for trial := 0; trial < 40; trial++ {
		ix := core.Build(randomDoc(rng, tags), core.DefaultOptions()).Snapshot()
		for qi := 0; qi < 25; qi++ {
			checkPlannedEquivalence(t, fmt.Sprintf("trial %d", trial), ix, randomQuery(rng, tags))
		}
	}
}

func randomDoc(rng *rand.Rand, tags []string) *xmltree.Doc {
	b := xmltree.NewBuilder()
	b.StartElement("root")
	var gen func(depth, budget int) int
	gen = func(depth, budget int) int {
		for budget > 0 {
			switch r := rng.Intn(10); {
			case r < 4 && depth < 4:
				b.StartElement(tags[rng.Intn(len(tags))])
				if rng.Intn(3) == 0 {
					b.Attribute([]string{"id", "v"}[rng.Intn(2)], randomVal(rng))
				}
				budget = gen(depth+1, budget-1)
				b.EndElement()
			default:
				b.Text(randomVal(rng))
				budget--
				if rng.Intn(2) == 0 {
					return budget
				}
			}
		}
		return budget
	}
	gen(1, 60)
	b.EndElement()
	d, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return d
}

func randomVal(rng *rand.Rand) string {
	switch rng.Intn(5) {
	case 0:
		return fmt.Sprint(rng.Intn(20))
	case 1:
		return fmt.Sprintf("%.1f", rng.Float64()*20)
	case 2:
		return []string{"foo", "bar", "baz"}[rng.Intn(3)]
	case 3:
		return "."
	default:
		return fmt.Sprint(rng.Intn(5))
	}
}

func randomQuery(rng *rand.Rand, tags []string) string {
	tag := func() string { return tags[rng.Intn(len(tags))] }
	axis := func() string {
		if rng.Intn(2) == 0 {
			return "/"
		}
		return "//"
	}
	lit := func() string {
		if rng.Intn(2) == 0 {
			return fmt.Sprint(rng.Intn(20))
		}
		return `"` + []string{"foo", "bar", "baz", "7"}[rng.Intn(4)] + `"`
	}
	op := []string{"=", "!=", "<", "<=", ">", ">="}[rng.Intn(6)]
	operand := []string{".", tag(), ".//" + tag(), tag() + "/" + tag(), "@id", "fn:data(" + tag() + ")"}[rng.Intn(6)]
	pred := "[" + operand + " " + op + " " + lit() + "]"
	if rng.Intn(4) == 0 {
		pred = "[" + operand + " " + op + " " + lit() + " and . " + op + " " + lit() + "]"
	}
	if rng.Intn(3) == 0 {
		return axis() + tag() + "/" + tag() + pred
	}
	return axis() + tag() + pred
}
