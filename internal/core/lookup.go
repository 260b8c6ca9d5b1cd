package core

import "repro/internal/xmltree"

// LookupString returns the nodes whose string value equals value,
// verifying each hash candidate against the document (the candidate check
// the paper describes in Section 3). It drains StringEqIter.
func (ix *Snapshot) LookupString(value string) []Posting {
	return ix.StringEqIter(value).drain()
}

func (ix *Snapshot) postingStringValue(p Posting) string {
	if p.IsAttr {
		return ix.doc.AttrValue(p.Attr)
	}
	return ix.doc.StringValue(p.Node)
}

// RangeTyped returns the postings of nodes whose typed value under index
// id has an encoded key k with lo ≤ k ≤ hi (bounds exclusive when
// incLo/incHi are false), in ascending value order — the one range
// lookup every typed index answers. Keys compare in value order because
// every TypeSpec.Encode is order-preserving, so callers pass bounds
// through the type's encoding (btree.EncodeFloat64, btree.EncodeInt64).
// It drains TypedRangeIter.
func (ix *Snapshot) RangeTyped(id TypeID, lo, hi uint64, incLo, incHi bool) []Posting {
	return ix.TypedRangeIter(id, lo, hi, incLo, incHi).drain()
}

// countContributing counts children participating in n's string value
// (elements and texts; comments/PIs excluded), stopping at 2.
func countContributing(doc *xmltree.Doc, n xmltree.NodeID) int {
	cnt := 0
	for c := doc.FirstChild(n); c != xmltree.InvalidNode; c = doc.NextSibling(c) {
		if xmltree.ContributesToParent(doc.Kind(c)) {
			cnt++
			if cnt > 1 {
				return cnt
			}
		}
	}
	return cnt
}

// ScanStringEquals is the index-less baseline: walk every indexed node and
// compare materialised string values. Used by the ablation benches and by
// tests as ground truth.
func (ix *Snapshot) ScanStringEquals(value string) []Posting {
	doc := ix.doc
	var out []Posting
	for i := 0; i < doc.NumNodes(); i++ {
		n := xmltree.NodeID(i)
		if indexedNodeKind(doc.Kind(n)) && doc.StringValue(n) == value {
			out = append(out, NodePosting(n))
		}
	}
	for a := 0; a < doc.NumAttrs(); a++ {
		if doc.AttrValue(xmltree.AttrID(a)) == value {
			out = append(out, AttrPosting(xmltree.AttrID(a)))
		}
	}
	return out
}

// ScanTypedRange is the index-less baseline for typed range predicates
// under registered type id: it materialises every node's string value,
// runs it through the type's machine, and keeps encoded keys within
// [lo, hi]. Works for any registered type, built or not.
func ScanTypedRange(doc *xmltree.Doc, id TypeID, lo, hi uint64) []Posting {
	spec, ok := LookupType(id)
	if !ok {
		return nil
	}
	within := func(s string) bool {
		f, ok := spec.Machine.ParseFragString(s)
		if !ok {
			return false
		}
		key, ok := spec.Encode(f)
		return ok && key >= lo && key <= hi
	}
	var out []Posting
	for i := 0; i < doc.NumNodes(); i++ {
		n := xmltree.NodeID(i)
		if indexedNodeKind(doc.Kind(n)) && within(doc.StringValue(n)) {
			out = append(out, NodePosting(n))
		}
	}
	for a := 0; a < doc.NumAttrs(); a++ {
		if within(doc.AttrValue(xmltree.AttrID(a))) {
			out = append(out, AttrPosting(xmltree.AttrID(a)))
		}
	}
	return out
}
