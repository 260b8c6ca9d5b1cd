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
// chain, exactly like the materialised Range* lookups.
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
	if t == nil {
		return it
	}
	if !incLo {
		if lo == math.MaxUint64 {
			return it
		}
		lo++
	}
	if !incHi {
		if hi == 0 {
			return it
		}
		hi--
	}
	if lo > hi {
		return it
	}
	it.cur = t.tree.CursorAt(lo)
	it.hi = hi
	return it
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
			// Queue the single-child ancestor chain (bottom-up, like
			// appendWithChain); pending is drained LIFO so push in reverse.
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
// locks, so this only drops references; calling it after draining (or
// abandoning) an iterator keeps the old locking contract's shape.
func (it *PostingIter) Close() {
	if it.closed {
		return
	}
	it.closed = true
	it.cur = nil
	it.pending = nil
}
