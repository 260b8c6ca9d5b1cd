package core

import (
	"math"

	"repro/internal/vhash"
	"repro/internal/xmltree"
)

// LookupStringCandidates returns the postings whose hash equals H(value),
// unverified: hash collisions may contribute false positives, which the
// paper's query pipeline filters afterwards (see LookupString).
func (ix *Snapshot) LookupStringCandidates(value string) []Posting {
	return ix.lookupStringCandidates(value)
}

func (ix *Snapshot) lookupStringCandidates(value string) []Posting {
	h := ix.hashes()
	if h == nil {
		return nil
	}
	var out []Posting
	h.tree.ScanEq(uint64(vhash.HashString(value)), func(packed uint32) bool {
		if p, ok := ix.resolve(packed); ok {
			out = append(out, p)
		}
		return true
	})
	return out
}

// LookupString returns the nodes whose string value equals value,
// verifying each hash candidate against the document (the candidate check
// the paper describes in Section 3). Candidate retrieval and verification
// run under one read-lock acquisition, so a concurrent update cannot slip
// between them.
func (ix *Snapshot) LookupString(value string) []Posting {
	cands := ix.lookupStringCandidates(value)
	out := cands[:0]
	for _, p := range cands {
		if ix.postingStringValue(p) == value {
			out = append(out, p)
		}
	}
	return out
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
func (ix *Snapshot) RangeTyped(id TypeID, lo, hi uint64, incLo, incHi bool) []Posting {
	t := ix.typedFor(id)
	if t == nil {
		return nil
	}
	if !incLo {
		if lo == math.MaxUint64 {
			return nil
		}
		lo++
	}
	if !incHi {
		if hi == 0 {
			return nil
		}
		hi--
	}
	var out []Posting
	t.tree.ScanRange(lo, hi, func(_ uint64, packed uint32) bool {
		if p, ok := ix.resolve(packed); ok {
			out = ix.appendWithChain(out, p)
		}
		return true
	})
	return out
}

// appendWithChain emits a typed-index hit plus its single-child ancestor
// chain: wrapper elements share their only contributing child's value and
// are not stored in the value trees, so they are materialised here (the
// inverse of the storage rule in typedFamily.keys).
func (ix *Snapshot) appendWithChain(out []Posting, p Posting) []Posting {
	out = append(out, p)
	if p.IsAttr {
		return out
	}
	doc := ix.doc
	for parent := doc.Parent(p.Node); parent != xmltree.InvalidNode; parent = doc.Parent(parent) {
		if countContributing(doc, parent) != 1 {
			break
		}
		out = append(out, NodePosting(parent))
	}
	return out
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
