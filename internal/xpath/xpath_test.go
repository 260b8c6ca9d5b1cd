package xpath

import (
	"testing"

	"repro/internal/core"
	"repro/internal/xmlparse"
	"repro/internal/xmltree"
)

const personXML = `<person><name><first>Arthur</first><family>Dent</family></name><birthday>1966-09-26</birthday><age><decades>4</decades>2<years/></age><weight><kilos>78</kilos>.<grams>230</grams></weight></person>`

func mustDoc(t testing.TB, xml string) *xmltree.Doc {
	t.Helper()
	doc, err := xmlparse.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func names(doc *xmltree.Doc, ps []core.Posting) []string {
	var out []string
	for _, p := range ps {
		if p.IsAttr {
			out = append(out, "@"+doc.AttrName(p.Attr))
		} else if doc.Kind(p.Node) == xmltree.Text {
			out = append(out, "text:"+doc.Value(p.Node))
		} else {
			out = append(out, doc.Name(p.Node))
		}
	}
	return out
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "person", "//", "//person[", "//person[x=]", "//a[.=1 and]",
		"//a[b==2]", `//a[.="unterminated]`, "//a]", "//a[b[c=1]=2]",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestParseShapes(t *testing.T) {
	p := MustParse(`//person[.//age = 42]/name`)
	if len(p.Steps) != 2 {
		t.Fatalf("steps = %d", len(p.Steps))
	}
	if p.Steps[0].Axis != Descendant || p.Steps[1].Axis != Child {
		t.Error("axes wrong")
	}
	cond := p.Steps[0].Preds[0].Conds[0]
	if cond.Dot || len(cond.Rel) != 1 || cond.Rel[0].Name != "age" || cond.Rel[0].Axis != Descendant {
		t.Errorf("cond = %+v", cond)
	}
	if !cond.Lit.IsNum || cond.Lit.Num != 42 {
		t.Errorf("lit = %+v", cond.Lit)
	}

	p = MustParse(`//item[@id="i1" and price >= 10]/desc`)
	conds := p.Steps[0].Preds[0].Conds
	if len(conds) != 2 {
		t.Fatalf("conds = %d", len(conds))
	}
	if conds[0].Rel[0].Kind != TestAttr || conds[1].Op != OpGe {
		t.Errorf("conds = %+v", conds)
	}
}

// The index-driven plans for every query below are held to this scan
// evaluator by internal/plan's TestPlannedEquivalence* suites.

func TestPaperQueryFirstArthur(t *testing.T) {
	doc := mustDoc(t, personXML)
	got := Evaluate(doc, MustParse(`//person[first/text()="Arthur"]`))
	// first is not a direct child of person — no match.
	if len(got) != 0 {
		t.Errorf("//person[first/text()=Arthur] = %v, want empty", names(doc, got))
	}
	got = Evaluate(doc, MustParse(`//person[name/first/text()="Arthur"]`))
	if len(got) != 1 || doc.Name(got[0].Node) != "person" {
		t.Errorf("person query = %v", names(doc, got))
	}
}

func TestPaperQueryFnData(t *testing.T) {
	doc := mustDoc(t, personXML)
	scan := Evaluate(doc, MustParse(`//*[fn:data(name)="ArthurDent"]`))
	if len(scan) != 1 || doc.Name(scan[0].Node) != "person" {
		t.Errorf("scan = %v", names(doc, scan))
	}
}

func TestPaperQueryAge42(t *testing.T) {
	xml := `<people>
	  <person><age>42</age></person>
	  <person><age>42.0</age></person>
	  <person><age> +4.2E1</age></person>
	  <person><age><decades>4</decades>2<years/></age></person>
	  <person><age>41</age></person>
	  <person><info><age>42</age></info></person>
	</people>`
	doc := mustDoc(t, xml)
	scan := Evaluate(doc, MustParse(`//person[.//age = 42]`))
	if len(scan) != 5 {
		t.Errorf("scan found %d persons, want 5: %v", len(scan), names(doc, scan))
	}
}

func TestRangeQueries(t *testing.T) {
	xml := `<items>
	  <item><price>5</price></item>
	  <item><price>15.5</price></item>
	  <item><price>25</price></item>
	  <item><price>not a price</price></item>
	</items>`
	doc := mustDoc(t, xml)
	cases := []struct {
		q    string
		want int
	}{
		{`//item[price > 10]`, 2},
		{`//item[price >= 15.5]`, 2},
		{`//item[price < 10]`, 1},
		{`//item[price <= 5]`, 1},
		{`//item[price = 25]`, 1},
		{`//item[price > 10 and price < 20]`, 1},
		{`//item[price != 5]`, 2}, // non-castable "not a price" never matches numerics
	}
	for _, c := range cases {
		if scan := Evaluate(doc, MustParse(c.q)); len(scan) != c.want {
			t.Errorf("scan %s = %d hits, want %d", c.q, len(scan), c.want)
		}
	}
}

func TestDateQueries(t *testing.T) {
	xml := `<people>
	  <person><birthday>1966-09-26</birthday></person>
	  <person><birthday>1971-01-05</birthday></person>
	  <person><birthday>1985-12-31</birthday></person>
	  <person><birthday>yesterday</birthday></person>
	  <person><birthday>1999-13-01</birthday></person>
	</people>`
	doc := mustDoc(t, xml)
	cases := []struct {
		q    string
		want int
	}{
		{`//person[birthday = xs:date("1966-09-26")]`, 1},
		{`//person[birthday < xs:date("1970-01-01")]`, 1},
		{`//person[birthday <= xs:date("1971-01-05")]`, 2},
		{`//person[birthday > xs:date("1966-09-26")]`, 2},
		{`//person[birthday >= xs:date("1800-01-01")]`, 3}, // non-dates and month 13 never match
		{`//person[birthday != xs:date("1966-09-26")]`, 2},
		{`//person[birthday = xs:date("2020-02-02")]`, 0},
	}
	for _, c := range cases {
		if scan := Evaluate(doc, MustParse(c.q)); len(scan) != c.want {
			t.Errorf("scan %s = %d hits, want %d", c.q, len(scan), c.want)
		}
	}
}

func TestDateLiteralParsing(t *testing.T) {
	for _, good := range []string{
		`//a[b = xs:date("2001-03-15")]`,
		`//a[b = date('2001-03-15')]`,
		`//a[b = xs:date ( "2001-03-15" )]`, // whitespace-tolerant, like every other token
	} {
		p, err := Parse(good)
		if err != nil {
			t.Fatalf("%s: %v", good, err)
		}
		lit := p.Steps[0].Preds[0].Conds[0].Lit
		if !lit.IsDate || lit.Str != "2001-03-15" {
			t.Errorf("%s: literal = %+v", good, lit)
		}
	}
	for _, bad := range []string{
		`//a[b = xs:date("not a date")]`,
		`//a[b = xs:date("2001-13-01")]`, // month 13: lexically live, semantically impossible
		`//a[b = xs:date(42)]`,
		`//a[b = xs:date("2001-03-15"]`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("%s: parse should fail", bad)
		}
	}
}

func TestAttributePredicatesAndSteps(t *testing.T) {
	xml := `<catalog>
	  <item id="i1" price="9.99"><name>foo</name></item>
	  <item id="i2" price="19.99"><name>bar</name></item>
	</catalog>`
	doc := mustDoc(t, xml)
	q := MustParse(`//item[@id="i2"]`)
	scan := Evaluate(doc, q)
	if len(scan) != 1 || doc.Name(scan[0].Node) != "item" {
		t.Fatalf("scan = %v", names(doc, scan))
	}
	q = MustParse(`//item[@price < 10]`)
	scan = Evaluate(doc, q)
	if len(scan) != 1 {
		t.Fatalf("@price<10 = %v", names(doc, scan))
	}
	// Attribute selection step.
	q = MustParse(`//item/@id`)
	scan = Evaluate(doc, q)
	if len(scan) != 2 || !scan[0].IsAttr {
		t.Fatalf("//item/@id = %v", names(doc, scan))
	}
	// Attribute step with dot predicate — indexable shape.
	q = MustParse(`//item/@id[. = "i1"]`)
	scan = Evaluate(doc, q)
	if len(scan) != 1 || doc.AttrValue(scan[0].Attr) != "i1" {
		t.Fatalf("attr dot pred = %v", names(doc, scan))
	}
}

func TestTextSteps(t *testing.T) {
	doc := mustDoc(t, personXML)
	q := MustParse(`//first/text()`)
	got := Evaluate(doc, q)
	if len(got) != 1 || doc.Value(got[0].Node) != "Arthur" {
		t.Errorf("//first/text() = %v", names(doc, got))
	}
	q = MustParse(`//name/*`)
	got = Evaluate(doc, q)
	if len(got) != 2 {
		t.Errorf("//name/* = %v", names(doc, got))
	}
	q = MustParse(`/person/name`)
	got = Evaluate(doc, q)
	if len(got) != 1 {
		t.Errorf("/person/name = %v", names(doc, got))
	}
	q = MustParse(`/name`)
	if got = Evaluate(doc, q); len(got) != 0 {
		t.Errorf("/name should not match below root: %v", names(doc, got))
	}
}

func TestDotPredicate(t *testing.T) {
	doc := mustDoc(t, personXML)
	q := MustParse(`//kilos[. = 78]`)
	scan := Evaluate(doc, q)
	if len(scan) != 1 {
		t.Errorf("//kilos[.=78] = %v", names(doc, scan))
	}
	// Mixed content: weight = 78.230 via ".": the paper's flagship case.
	q = MustParse(`//weight[. = 78.230]`)
	scan = Evaluate(doc, q)
	if len(scan) != 1 {
		t.Errorf("//weight[.=78.230] = %v", names(doc, scan))
	}
	q = MustParse(`//family[. = "Dent"]`)
	scan = Evaluate(doc, q)
	if len(scan) != 1 {
		t.Errorf("//family[.=Dent] = %v", names(doc, scan))
	}
}
