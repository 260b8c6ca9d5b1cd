package core

import (
	"testing"

	"repro/internal/xmlparse"
	"repro/internal/xmltree"
)

// The typed value trees store castable texts, attributes, and COMBINED
// (mixed-content) elements; single-child wrapper chains are materialised
// at query time by appendWithChain. These tests pin that contract.

func kindsOf(t *testing.T, ix *Indexes, ps []Posting) map[xmltree.Kind]int {
	t.Helper()
	out := map[xmltree.Kind]int{}
	for _, p := range ps {
		if p.IsAttr {
			continue
		}
		out[ix.Doc().Kind(p.Node)]++
	}
	return out
}

func TestChainLiftSingleWrapper(t *testing.T) {
	ix := Build(mustParseForTest(t, `<r><price>42</price></r>`), DefaultOptions())
	hits := lookupDoubleEq(ix.Snapshot(), 42)
	k := kindsOf(t, ix, hits)
	// text + <price> + <r> + document: the whole single-child chain.
	if k[xmltree.Text] != 1 || k[xmltree.Element] != 2 || k[xmltree.Document] != 1 {
		t.Fatalf("chain = %v (hits %v)", k, hits)
	}
}

func TestChainLiftStopsAtBranching(t *testing.T) {
	ix := Build(mustParseForTest(t, `<r><price>42</price><other>text</other></r>`), DefaultOptions())
	hits := lookupDoubleEq(ix.Snapshot(), 42)
	k := kindsOf(t, ix, hits)
	// <r> has two contributing children; its value "42text" is not 42.
	if k[xmltree.Element] != 1 || k[xmltree.Document] != 0 {
		t.Fatalf("chain leaked past branching: %v", k)
	}
}

func TestChainLiftDeepWrappers(t *testing.T) {
	ix := Build(mustParseForTest(t, `<a><b><c><d>7.5</d></c></b></a>`), DefaultOptions())
	hits := lookupDoubleEq(ix.Snapshot(), 7.5)
	if len(hits) != 5 { // text, d, c, b, a... plus document = 6? a's parent is doc
		// text + d + c + b + a + document = 6
		if len(hits) != 6 {
			t.Fatalf("deep chain = %d hits", len(hits))
		}
	}
}

func TestCombinedElementStoredDirectly(t *testing.T) {
	// Mixed content: the element itself carries the combined value and
	// must be found even though no single child has it.
	ix := Build(mustParseForTest(t, `<r><w><k>78</k>.<g>230</g></w><pad>x</pad></r>`), DefaultOptions())
	hits := lookupDoubleEq(ix.Snapshot(), 78.230)
	foundW := false
	for _, p := range hits {
		if !p.IsAttr && ix.Doc().Kind(p.Node) == xmltree.Element && ix.Doc().Name(p.Node) == "w" {
			foundW = true
		}
	}
	if !foundW {
		t.Fatalf("combined <w> missing from %v", hits)
	}
	// Its children 78 and 230 are separate values.
	if len(lookupDoubleEq(ix.Snapshot(), 78)) == 0 || len(lookupDoubleEq(ix.Snapshot(), 230)) == 0 {
		t.Error("component values missing")
	}
}

func TestChainLiftWithWhitespacePadding(t *testing.T) {
	// Pretty-printed wrapper: <price> has ONE contributing text " 42 ",
	// whose castable value matches the wrapper's.
	doc, err := xmlparse.ParseString("<r><price> 42 </price></r>")
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(doc, DefaultOptions())
	hits := lookupDoubleEq(ix.Snapshot(), 42)
	k := kindsOf(t, ix, hits)
	if k[xmltree.Element] != 2 { // price and r
		t.Fatalf("padded chain = %v", k)
	}
}

func TestChainLiftSkipsCommentSiblings(t *testing.T) {
	// Comments do not contribute: <price> still has a single contributing
	// child and must be lifted.
	ix := Build(mustParseForTest(t, `<r><price>42<!--note--></price></r>`), DefaultOptions())
	hits := lookupDoubleEq(ix.Snapshot(), 42)
	k := kindsOf(t, ix, hits)
	if k[xmltree.Element] != 2 {
		t.Fatalf("comment broke the chain: %v", k)
	}
}

func TestChainLiftAfterStructuralUpdate(t *testing.T) {
	// Deleting the sibling turns a combined parent into a wrapper; the
	// tree entry must follow the membership rule.
	ix := Build(mustParseForTest(t, `<r><price>42</price><note>x</note></r>`), DefaultOptions())
	d := ix.Doc()
	var note xmltree.NodeID
	for i := 0; i < d.NumNodes(); i++ {
		if d.Kind(xmltree.NodeID(i)) == xmltree.Element && d.Name(xmltree.NodeID(i)) == "note" {
			note = xmltree.NodeID(i)
		}
	}
	if err := ix.DeleteSubtree(note); err != nil {
		t.Fatal(err)
	}
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
	hits := lookupDoubleEq(ix.Snapshot(), 42)
	k := kindsOf(t, ix, hits)
	// Now r is a wrapper: lifted, plus document.
	if k[xmltree.Element] != 2 || k[xmltree.Document] != 1 {
		t.Fatalf("after delete: %v", k)
	}
	// And the reverse: inserting a numeric sibling makes <r> combined.
	b := xmltree.NewBuilder()
	b.StartElement("more")
	b.Text("58")
	b.EndElement()
	frag, _ := b.Finish()
	r := d.FirstChild(d.Root())
	if _, err := ix.InsertChildren(r, 1, frag); err != nil {
		t.Fatal(err)
	}
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
	// r's value is now "4258" — combined and castable.
	if hits := lookupDoubleEq(ix.Snapshot(), 4258); len(hits) == 0 {
		t.Error("combined value after insert missing")
	}
}

func TestRangeOrderWithChains(t *testing.T) {
	ix := Build(mustParseForTest(t, `<r><a>1</a><b>2</b><c>3</c></r>`), DefaultOptions())
	hits := rangeDouble(ix.Snapshot(), 0, 10, true, true)
	// Values must be non-decreasing across the scan even with lifted
	// wrappers interleaved.
	last := -1.0
	for _, p := range hits {
		if p.IsAttr {
			continue
		}
		v, ok := doubleValue(ix.Snapshot(), p.Node)
		if !ok {
			t.Fatalf("non-castable hit %v", p)
		}
		if v < last {
			t.Fatalf("range order violated: %v after %v", v, last)
		}
		last = v
	}
}
