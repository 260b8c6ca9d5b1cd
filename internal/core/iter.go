package core

import (
	"math"

	"repro/internal/btree"
	"repro/internal/vhash"
	"repro/internal/xmltree"
)

// PostingIter streams the postings of one index access path in ascending
// key order, resolving packed postings lazily — the planner's executor
// consumes these instead of materialised []Posting slices, so a driver
// access path can stop early and the non-driver paths of an intersection
// can stream straight into bitmaps. String-equality iterators verify
// every hash candidate against the document (no false positives escape);
// typed range iterators interleave each hit's single-child ancestor
// chain.
//
// The iterator pins the Snapshot it was opened on, so a concurrent
// update cannot slip between candidate retrieval and verification:
// published versions are immutable and a writer's copy-on-write commit
// never touches the node graph a live cursor walks. Close is a no-op
// kept for API symmetry (the snapshot is released by the garbage
// collector once unreachable); it remains safe to call exactly once.
type PostingIter struct {
	ix  *Snapshot
	cur *btree.Cursor
	hi  uint64

	// String-equality verification (hash candidates only).
	verify   string
	doVerify bool

	// Single-child ancestor chain lifting (typed range paths only).
	chainLift bool
	pending   []Posting

	closed bool
}

// StringEqIter streams the verified postings whose string value equals
// value, in ascending posting order (the hash index stores one posting
// per node, wrappers included, so no chain lifting applies).
func (ix *Snapshot) StringEqIter(value string) *PostingIter {
	it := &PostingIter{ix: ix, verify: value, doVerify: true}
	if h := ix.hashes(); h != nil {
		key := uint64(vhash.HashString(value))
		it.cur = h.tree.CursorAt(key)
		it.hi = key
	}
	return it
}

// TypedRangeIter streams the postings of nodes whose typed value under
// index id has an encoded key in [lo, hi] (exclusive bounds when
// incLo/incHi are false), in ascending value order, with each hit's
// wrapper-element chain interleaved.
func (ix *Snapshot) TypedRangeIter(id TypeID, lo, hi uint64, incLo, incHi bool) *PostingIter {
	it := &PostingIter{ix: ix, chainLift: true}
	t := ix.typedFor(id)
	lo, hi, ok := closedRange(lo, hi, incLo, incHi)
	if t == nil || !ok {
		return it
	}
	it.cur = t.tree.CursorAt(lo)
	it.hi = hi
	return it
}

// closedRange turns a key range whose bounds may be exclusive into the
// inclusive range it covers; ok is false when that range is empty.
func closedRange(lo, hi uint64, incLo, incHi bool) (uint64, uint64, bool) {
	if !incLo {
		if lo == math.MaxUint64 {
			return 0, 0, false
		}
		lo++
	}
	if !incHi {
		if hi == 0 {
			return 0, 0, false
		}
		hi--
	}
	return lo, hi, lo <= hi
}

// Next returns the next posting; ok is false once the path is exhausted.
func (it *PostingIter) Next() (Posting, bool) {
	if n := len(it.pending); n > 0 {
		p := it.pending[n-1]
		it.pending = it.pending[:n-1]
		return p, true
	}
	if it.cur == nil {
		return Posting{}, false
	}
	for {
		e, ok := it.cur.Next()
		if !ok || e.Key > it.hi {
			it.cur = nil
			return Posting{}, false
		}
		p, ok := it.ix.resolve(e.Val)
		if !ok {
			continue
		}
		if it.doVerify && it.ix.postingStringValue(p) != it.verify {
			continue
		}
		if it.chainLift && !p.IsAttr {
			// Queue the single-child ancestor chain: wrapper elements
			// share their only contributing child's value and are not
			// stored in the value trees (the inverse of the storage rule
			// in typedFamily.keys). pending drains LIFO, so the run is
			// reversed below.
			doc := it.ix.doc
			start := len(it.pending)
			for parent := doc.Parent(p.Node); parent != xmltree.InvalidNode; parent = doc.Parent(parent) {
				if countContributing(doc, parent) != 1 {
					break
				}
				it.pending = append(it.pending, NodePosting(parent))
			}
			// Reverse the queued run so ancestors pop closest-first.
			for i, j := start, len(it.pending)-1; i < j; i, j = i+1, j-1 {
				it.pending[i], it.pending[j] = it.pending[j], it.pending[i]
			}
		}
		return p, true
	}
}

// Close releases the iterator's cursor state. Snapshot reads take no
// locks, so this only drops references.
func (it *PostingIter) Close() {
	if it.closed {
		return
	}
	it.closed = true
	it.cur = nil
	it.pending = nil
}

// drain collects the iterator's remaining postings; nil when there are
// none.
func (it *PostingIter) drain() []Posting {
	var out []Posting
	for p, ok := it.Next(); ok; p, ok = it.Next() {
		out = append(out, p)
	}
	return out
}
