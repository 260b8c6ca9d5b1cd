package btree

// Packed leaf representation: frame-of-reference + delta encoding over
// the sorted (Key, Val) entry sequence of one leaf.
//
// A leaf's entries are strictly ascending by (Key, Val), so consecutive
// entries are encoded as uvarint deltas against an implicit (0, 0)
// predecessor:
//
//	keyDelta  = Key - prev.Key        (uvarint)
//	if keyDelta == 0:  Val - prev.Val (uvarint; Vals strictly ascend
//	                                   within a duplicate-key run)
//	else:              Val            (uvarint, full posting)
//
// Index postings are dense node ids and keys cluster (hash buckets,
// order-encoded numerics), so typical entries pack to 2-6 bytes instead
// of the 16 an unpacked Entry occupies. Decoding is a strictly linear
// scan, which is exactly how leaves are consumed: lookups decode one
// leaf (<= maxLeaf entries) into a stack scratch or the cursor's
// reusable scratch, and mutations decode, modify, and re-pack through
// the copy-on-write path (see mutableLeaf callers in btree.go).

import (
	"encoding/binary"
	"math/bits"
	"unsafe"
)

// appendEntryDelta appends e's encoding relative to its predecessor.
func appendEntryDelta(dst []byte, prev, e Entry) []byte {
	kd := e.Key - prev.Key
	dst = binary.AppendUvarint(dst, kd)
	if kd == 0 {
		dst = binary.AppendUvarint(dst, uint64(e.Val-prev.Val))
	} else {
		dst = binary.AppendUvarint(dst, uint64(e.Val))
	}
	return dst
}

// appendPacked appends the packed encoding of entries (strictly sorted
// by (Key, Val)) to dst and returns the extended slice.
func appendPacked(dst []byte, entries []Entry) []byte {
	var prev Entry
	for _, e := range entries {
		dst = appendEntryDelta(dst, prev, e)
		prev = e
	}
	return dst
}

// packedLen reports the exact encoded size of entries, so leaf buffers
// can be allocated right-sized (append-style growth would waste the
// memory this layout exists to save).
func packedLen(entries []Entry) int {
	n := 0
	var prev Entry
	for _, e := range entries {
		kd := e.Key - prev.Key
		n += uvarintLen(kd)
		if kd == 0 {
			n += uvarintLen(uint64(e.Val - prev.Val))
		} else {
			n += uvarintLen(uint64(e.Val))
		}
		prev = e
	}
	return n
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// newLeaf packs entries into a fresh right-sized leaf owned by gen.
func newLeaf(gen uint64, entries []Entry) *leaf {
	return &leaf{
		gen:    gen,
		count:  int32(len(entries)),
		packed: appendPacked(make([]byte, 0, packedLen(entries)), entries),
	}
}

// setEntries re-packs entries into l, reusing l.packed's capacity when
// it suffices. Only valid on a leaf owned by the mutating tree handle.
func (l *leaf) setEntries(entries []Entry) {
	need := packedLen(entries)
	if cap(l.packed) < need {
		l.packed = make([]byte, 0, need)
	}
	l.packed = appendPacked(l.packed[:0], entries)
	l.count = int32(len(entries))
}

// appendEntries decodes l into dst[:0] and returns the decoded slice.
// Callers pass a scratch with capacity maxLeaf+1 to keep decoding
// allocation-free.
func (l *leaf) appendEntries(dst []Entry) []Entry {
	dst = dst[:0]
	it := l.iter()
	for it.next() {
		dst = append(dst, it.e)
	}
	return dst
}

// leafIter streams a packed leaf's entries in order without
// materialising them — the read path for scans and point lookups.
type leafIter struct {
	p []byte
	e Entry
}

func (l *leaf) iter() leafIter { return leafIter{p: l.packed} }

func (it *leafIter) next() bool {
	if len(it.p) == 0 {
		return false
	}
	kd, n := binary.Uvarint(it.p)
	if n <= 0 {
		panic("btree: corrupt packed leaf")
	}
	vd, m := binary.Uvarint(it.p[n:])
	if m <= 0 {
		panic("btree: corrupt packed leaf")
	}
	it.p = it.p[n+m:]
	if kd == 0 {
		it.e.Val += uint32(vd)
	} else {
		it.e.Key += kd
		it.e.Val = uint32(vd)
	}
	return true
}

// maxEntryEnc bounds one entry's encoding: a 10-byte uvarint key delta
// plus a 5-byte uvarint value.
const maxEntryEnc = 15

// spliceSlack is the capacity headroom given to leaf buffers allocated
// on the mutation path, so a run of inserts into the same leaf doesn't
// reallocate on every call. Bulk-loaded and re-packed leaves stay
// exactly sized; the slack exists only on update-touched leaves.
const spliceSlack = 16

// leafLoc is a position inside a packed leaf: the byte range of the
// first entry >= some probe (the "successor") and the decoded entries
// around it.
type leafLoc struct {
	pos     int   // byte offset where the successor's encoding starts
	succEnd int   // byte offset just past the successor's encoding
	prev    Entry // entry preceding pos (zero Entry at the leaf start)
	succ    Entry // the successor itself (valid only when hasSucc)
	hasSucc bool  // false: the probe sorts after every entry (pos == len(packed))
}

// locate finds e's position by streaming the packed bytes: the returned
// loc identifies the first entry >= e and the byte span it occupies.
// This is the splice anchor for single-entry mutations — everything
// before pos and after succEnd keeps byte-identical encodings, because
// an entry's delta depends only on its immediate predecessor.
func (l *leaf) locate(e Entry) (loc leafLoc) {
	p := l.packed
	off := 0
	var cur Entry
	for off < len(p) {
		kd, n1 := binary.Uvarint(p[off:])
		if n1 <= 0 {
			panic("btree: corrupt packed leaf")
		}
		vd, n2 := binary.Uvarint(p[off+n1:])
		if n2 <= 0 {
			panic("btree: corrupt packed leaf")
		}
		next := cur
		if kd == 0 {
			next.Val += uint32(vd)
		} else {
			next.Key += kd
			next.Val = uint32(vd)
		}
		if !next.less(e) {
			loc.pos = off
			loc.succEnd = off + n1 + n2
			loc.prev = cur
			loc.succ = next
			loc.hasSucc = true
			return loc
		}
		cur = next
		off += n1 + n2
	}
	loc.pos, loc.succEnd, loc.prev = off, off, cur
	return loc
}

// spliceMutable returns a leaf owned by t whose packed payload equals
// l.packed with [from, to) replaced by repl, mutating l in place when t
// owns it and the buffer has room. The caller fixes up count. This is
// the O(splice) write path: a single-entry insert or delete re-encodes
// at most two entries instead of the whole leaf.
func (t *Tree) spliceMutable(l *leaf, from, to int, repl []byte) *leaf {
	p := l.packed
	newLen := from + len(repl) + len(p) - to
	if l.gen == t.gen && cap(p) >= newLen {
		tail := p[to:]
		p = p[:newLen]
		copy(p[from+len(repl):], tail) // memmove: handles both directions
		copy(p[from:], repl)
		l.packed = p
		return l
	}
	np := make([]byte, newLen, newLen+spliceSlack)
	copy(np, p[:from])
	copy(np[from:], repl)
	copy(np[from+len(repl):], p[to:])
	if l.gen == t.gen {
		l.packed = np
		return l
	}
	return &leaf{gen: t.gen, count: l.count, packed: np}
}

// first returns the smallest entry of a non-empty leaf.
func (l *leaf) first() (Entry, bool) {
	it := l.iter()
	if it.next() {
		return it.e, true
	}
	return Entry{}, false
}

// --- footprint accounting ---

const (
	leafFixedBytes  = int(unsafe.Sizeof(leaf{}))
	innerFixedBytes = int(unsafe.Sizeof(inner{}))
	entryBytes      = int(unsafe.Sizeof(Entry{}))
	// nodeIfaceBytes is one node interface value inside an inner's
	// children slice.
	nodeIfaceBytes = int(unsafe.Sizeof(node(nil)))
)

// MemBytes reports the in-memory footprint of the tree's node graph:
// node headers, inner separator/child slices, and packed leaf payloads.
// It walks every node, so call it for reporting, not on hot paths.
// Nodes shared between clones are counted once per handle (the walk
// cannot see sharing), which matches how a single published snapshot is
// sized.
func (t *Tree) MemBytes() int {
	return int(unsafe.Sizeof(Tree{})) + nodeMemBytes(t.root)
}

func nodeMemBytes(n node) int {
	switch nn := n.(type) {
	case *leaf:
		return leafFixedBytes + cap(nn.packed)
	case *inner:
		b := innerFixedBytes + cap(nn.keys)*entryBytes + cap(nn.children)*nodeIfaceBytes
		for _, c := range nn.children {
			b += nodeMemBytes(c)
		}
		return b
	}
	panic("btree: unknown node type")
}
