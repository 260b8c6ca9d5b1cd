package xpath

import (
	"testing"

	"repro/internal/core"
	"repro/internal/xmltree"
)

// Additional dialect-corner tests: shapes that stress the parser and the
// scan evaluator beyond the paper examples. internal/plan's
// TestPlannedEquivalenceDialect holds the planned (index-driven)
// execution of every query here to the same answers.

func evalScan(t *testing.T, xml, query string) ([]core.Posting, *xmltree.Doc) {
	t.Helper()
	doc := mustDoc(t, xml)
	q, err := Parse(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	return Evaluate(doc, q), doc
}

func TestWildcardSteps(t *testing.T) {
	hits, doc := evalScan(t, `<r><a><x>1</x></a><b><x>2</x></b></r>`, `//*[x = 2]`)
	if len(hits) != 1 || doc.Name(hits[0].Node) != "b" {
		t.Errorf("wildcard = %v", names(doc, hits))
	}
	hits, _ = evalScan(t, `<r><a><x>1</x></a><b><x>2</x></b></r>`, `/r/*/x`)
	if len(hits) != 2 {
		t.Errorf("/r/*/x = %d hits", len(hits))
	}
}

func TestDescendantWithinPredicate(t *testing.T) {
	xml := `<lib><shelf><box><book>42</book></box></shelf><shelf><book>7</book></shelf></lib>`
	hits, doc := evalScan(t, xml, `//shelf[.//book = 42]`)
	if len(hits) != 1 {
		t.Errorf("deep predicate = %v", names(doc, hits))
	}
	// Child-only rel must NOT see the boxed book.
	hits, _ = evalScan(t, xml, `//shelf[book = 42]`)
	if len(hits) != 0 {
		t.Errorf("child rel leaked into descendants: %v", len(hits))
	}
	hits, _ = evalScan(t, xml, `//shelf[book = 7]`)
	if len(hits) != 1 {
		t.Errorf("child rel missed direct child: %d", len(hits))
	}
}

func TestMultiStepRelPaths(t *testing.T) {
	xml := `<s><person><name><first>Ann</first></name></person><person><name><first>Bob</first></name></person></s>`
	hits, doc := evalScan(t, xml, `//person[name/first = "Bob"]`)
	if len(hits) != 1 {
		t.Errorf("multi-step rel = %v", names(doc, hits))
	}
	hits, _ = evalScan(t, xml, `//person[name/first/text() = "Ann"]`)
	if len(hits) != 1 {
		t.Errorf("text() rel = %d", len(hits))
	}
}

func TestConjunctionSemantics(t *testing.T) {
	xml := `<r><i><p>5</p><q>alpha</q></i><i><p>5</p><q>beta</q></i><i><p>6</p><q>alpha</q></i></r>`
	hits, _ := evalScan(t, xml, `//i[p = 5 and q = "alpha"]`)
	if len(hits) != 1 {
		t.Errorf("conjunction = %d hits", len(hits))
	}
	// Two separate predicates behave like a conjunction too.
	hits, _ = evalScan(t, xml, `//i[p = 5][q = "alpha"]`)
	if len(hits) != 1 {
		t.Errorf("stacked predicates = %d hits", len(hits))
	}
}

func TestExistentialComparison(t *testing.T) {
	// XPath general comparison: the predicate holds if ANY selected node
	// matches — here person has two <age> children.
	xml := `<r><person><age>10</age><age>42</age></person></r>`
	hits, _ := evalScan(t, xml, `//person[age = 42]`)
	if len(hits) != 1 {
		t.Errorf("existential = %d", len(hits))
	}
	// != is also existential: some age differs from 10.
	hits, _ = evalScan(t, xml, `//person[age != 10]`)
	if len(hits) != 1 {
		t.Errorf("existential != = %d", len(hits))
	}
}

func TestNumericLexicalVariants(t *testing.T) {
	xml := `<r><v>42</v><v>42.0</v><v> +4.2E1</v><v>0042</v><v>42x</v></r>`
	hits, _ := evalScan(t, xml, `//v[. = 42]`)
	if len(hits) != 4 {
		t.Errorf("lexical variants = %d hits, want 4", len(hits))
	}
}

func TestStringRelationalLexicographic(t *testing.T) {
	xml := `<r><w>apple</w><w>banana</w><w>cherry</w></r>`
	hits, _ := evalScan(t, xml, `//w[. > "avocado"]`)
	if len(hits) != 2 {
		t.Errorf("lexicographic > = %d", len(hits))
	}
}

func TestRootedPaths(t *testing.T) {
	xml := `<a><b><a><c>x</c></a></b></a>`
	// Absolute /a selects only the root element.
	hits, doc := evalScan(t, xml, `/a[.//c = "x"]`)
	if len(hits) != 1 || hits[0].Node != doc.FirstChild(doc.Root()) {
		t.Errorf("/a = %v", hits)
	}
	// //a selects both.
	hits, _ = evalScan(t, xml, `//a[.//c = "x"]`)
	if len(hits) != 2 {
		t.Errorf("//a = %d", len(hits))
	}
}

func TestFnDataOnDot(t *testing.T) {
	hits, _ := evalScan(t, `<r><k>42</k></r>`, `//k[fn:data(.) = 42]`)
	if len(hits) != 1 {
		t.Errorf("fn:data(.) = %d", len(hits))
	}
}

func TestAttrWildcard(t *testing.T) {
	hits, _ := evalScan(t, `<r><i a="1" b="2"/><i c="3"/></r>`, `//i/@*`)
	if len(hits) != 3 {
		t.Errorf("@* = %d", len(hits))
	}
	hits, _ = evalScan(t, `<r><i a="7"/><i b="7"/></r>`, `//i[@* = 7]`)
	if len(hits) != 2 {
		t.Errorf("[@* = 7] = %d", len(hits))
	}
}

func TestEmptyResultShapes(t *testing.T) {
	for _, q := range []string{
		`//missing`, `/wrongroot/x`, `//r[. = "nothing"]`,
		`//r/@absent`, `//r[missing = 1]`,
	} {
		hits, _ := evalScan(t, `<r><a>1</a></r>`, q)
		if len(hits) != 0 {
			t.Errorf("%q = %d hits, want 0", q, len(hits))
		}
	}
}
