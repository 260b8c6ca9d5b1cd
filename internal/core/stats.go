package core

import "repro/internal/xmltree"

// TypedStats summarises one typed index's contents and estimated
// persisted size.
type TypedStats struct {
	ID   TypeID
	Name string

	Live          int // nodes with a stored (non-reject) state
	LiveTexts     int // text nodes with a potentially valid fragment
	CastableTexts int // text nodes whose value casts to the type
	Castable      int // entries in the value B+tree
	NonLeaf       int // non-leaf nodes with a castable value
	Bytes         int // persisted estimate: 1 byte state + items per live node, 12 bytes per tree entry
}

// IndexStats summarises index contents and estimated persisted sizes; it
// backs Table 1 and the storage panels of Figure 9.
type IndexStats struct {
	Nodes int // tree nodes + attributes
	Texts int
	Attrs int

	// String index.
	StringEntries int // postings in the hash B+tree
	StringBytes   int // persisted size estimate: 4 bytes hash + 4 bytes posting per entry

	// Substring index (zero when not enabled).
	SubstringEntries int // (gram, posting) entries in the q-gram B+tree
	SubstringBytes   int // persisted size estimate: 4 bytes gram + 4 bytes posting per entry

	// Typed holds one entry per built typed index, in registry order.
	Typed []TypedStats

	Elements int // element count (Table 1 totals are elements + texts)
}

// TypedFor returns the stats entry for typed index id, if built.
func (s IndexStats) TypedFor(id TypeID) (TypedStats, bool) {
	for _, t := range s.Typed {
		if t.ID == id {
			return t, true
		}
	}
	return TypedStats{}, false
}

// Stats scans the index structures; cost is O(nodes · types).
func (ix *Snapshot) Stats() IndexStats {
	doc := ix.doc
	var s IndexStats
	s.Attrs = doc.NumAttrs()
	s.Nodes = doc.NumNodes() + s.Attrs

	for i := 0; i < doc.NumNodes(); i++ {
		switch doc.Kind(xmltree.NodeID(i)) {
		case xmltree.Text:
			s.Texts++
		case xmltree.Element:
			s.Elements++
		}
	}
	for _, f := range ix.fams {
		f.addStats(ix, &s)
	}
	return s
}

// isCombinedValue reports whether an element's value is assembled across
// MULTIPLE contributing children — the paper's notion of a "non-leaf"
// typed value (its <weight><kilos>78</kilos>.<grams>230</grams></weight>
// example). Wrappers with a single contributing child (a text, or one
// element) share that child's value exactly and are chain-lifted at query
// time instead of being stored (see typedFamily.keys and
// PostingIter.Next — the two rules must stay complementary).
func isCombinedValue(doc *xmltree.Doc, n xmltree.NodeID) bool {
	return countContributing(doc, n) > 1
}
