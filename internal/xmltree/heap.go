package xmltree

import "repro/internal/pcol"

// textHeap is an append-only byte heap holding all character data of a
// document. XML values repeat heavily (XMark categories, attribute
// enums, boilerplate text), so the heap hash-conses small values: a put
// of bytes equal to an already-stored value returns the existing ref
// instead of appending a duplicate. Updated values are appended; ranges
// an overwrite or subtree deletion abandons are counted in dead and
// reclaimed by Compact (value updates must never invalidate other
// references, so nothing is rewritten in place).
type textHeap struct {
	data []byte

	// intern hash-conses values up to maxInternLen bytes: content hash →
	// ref of a stored copy with those bytes. Copy-on-write clones share
	// the map (see cow.go): only the single serialized writer touches
	// it, readers only ever dereference data. Entries are verified on
	// every hit — a stale entry (left by an abandoned draft whose
	// appends were never published, or by a hash collision) fails the
	// byte comparison and is simply rebound.
	intern map[uint64]valueRef

	// dead counts heap bytes abandoned by value overwrites and subtree
	// deletions. It is a conservative upper bound — an abandoned range
	// may still be referenced elsewhere through interning — that drives
	// draft auto-compaction in internal/core.
	dead int
}

// maxInternLen bounds hash-consed value size: long values are rarely
// repeated, and hashing them on every put would tax update throughput.
const maxInternLen = 128

func newTextHeap() *textHeap { return &textHeap{} }

// cloneHeader returns a heap header sharing data, the intern map, and
// the dead counter with h — the copy-on-write clone used by cow.go.
func (h *textHeap) cloneHeader() *textHeap {
	return &textHeap{data: h.data, intern: h.intern, dead: h.dead}
}

// internHash is FNV-1a over the value bytes, the intern map key.
func internHash(s []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range s {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

func internHashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// refHolds reports whether r is a valid range of this heap holding
// exactly the bytes of s. It rejects stale refs pointing past the
// current length (possible after an abandoned draft's appends were
// dropped with its backing array).
func (h *textHeap) refHolds(r valueRef, s string) bool {
	end := uint64(r.off) + uint64(r.len)
	return int(r.len) == len(s) && end <= uint64(len(h.data)) && string(h.data[r.off:end]) == s
}

func (h *textHeap) refHoldsBytes(r valueRef, s []byte) bool {
	end := uint64(r.off) + uint64(r.len)
	// string conversions in a comparison do not allocate.
	return int(r.len) == len(s) && end <= uint64(len(h.data)) && string(h.data[r.off:end]) == string(s)
}

func (h *textHeap) put(s []byte) valueRef {
	if len(s) == 0 {
		return valueRef{}
	}
	if len(s) <= maxInternLen {
		if h.intern == nil {
			h.intern = make(map[uint64]valueRef)
		}
		key := internHash(s)
		if r, ok := h.intern[key]; ok && h.refHoldsBytes(r, s) {
			return r
		}
		r := h.appendBytes(s)
		h.intern[key] = r
		return r
	}
	return h.appendBytes(s)
}

func (h *textHeap) putString(s string) valueRef {
	if len(s) == 0 {
		return valueRef{}
	}
	if len(s) <= maxInternLen {
		if h.intern == nil {
			h.intern = make(map[uint64]valueRef)
		}
		key := internHashString(s)
		if r, ok := h.intern[key]; ok && h.refHolds(r, s) {
			return r
		}
		r := h.appendString(s)
		h.intern[key] = r
		return r
	}
	return h.appendString(s)
}

func (h *textHeap) appendBytes(s []byte) valueRef {
	off := uint32(len(h.data))
	h.data = append(h.data, s...)
	return valueRef{off: off, len: uint32(len(s))}
}

func (h *textHeap) appendString(s string) valueRef {
	off := uint32(len(h.data))
	h.data = append(h.data, s...)
	return valueRef{off: off, len: uint32(len(s))}
}

func (h *textHeap) get(r valueRef) string {
	if r.len == 0 {
		return ""
	}
	return string(h.data[r.off : r.off+r.len])
}

func (h *textHeap) getBytes(r valueRef) []byte {
	if r.len == 0 {
		return nil
	}
	return h.data[r.off : r.off+r.len : r.off+r.len]
}

func (h *textHeap) size() int { return len(h.data) }

// nameDict interns tag and attribute names.
type nameDict struct {
	byName map[string]NameID
	names  []string
}

func newNameDict() *nameDict {
	return &nameDict{byName: make(map[string]NameID)}
}

func (d *nameDict) intern(s string) NameID {
	if id, ok := d.byName[s]; ok {
		return id
	}
	id := NameID(len(d.names))
	d.names = append(d.names, s)
	d.byName[s] = id
	return id
}

func (d *nameDict) find(s string) NameID {
	if id, ok := d.byName[s]; ok {
		return id
	}
	return -1
}

func (d *nameDict) lookup(id NameID) string {
	if id < 0 || int(id) >= len(d.names) {
		return ""
	}
	return d.names[id]
}

func (d *nameDict) count() int { return len(d.names) }

// Compact rebuilds the text heap keeping only referenced ranges,
// releasing garbage produced by value updates and deletions, and
// re-deduplicating every live value through the intern table. It
// returns the number of bytes reclaimed.
//
// Compact allocates fresh value and attrValue columns and a fresh heap
// rather than rewriting anything in place, so it is safe on any
// privately owned draft even though that draft shares chunks with a
// published snapshot (see cow.go). It must still never be called on a
// Doc that has itself been published to concurrent readers: it swaps
// the Doc's own column handles, which readers of that Doc would race
// with.
func (d *Doc) Compact() int {
	old := d.heap
	capHint := d.LiveHeapBytes()
	if capHint > old.size() {
		capHint = old.size() // LiveHeapBytes double-counts interned sharing
	}
	fresh := newTextHeap()
	fresh.data = make([]byte, 0, capHint)
	rebuild := func(col *pcol.Dense[valueRef]) pcol.Dense[valueRef] {
		out := pcol.NewDense[valueRef](col.Len())
		for i := range col.Len() {
			if r := col.At(i); r.len != 0 {
				out.Set(i, fresh.put(old.getBytes(r)))
			}
		}
		return out
	}
	d.value = rebuild(&d.value)
	d.attrValue = rebuild(&d.attrValue)
	reclaimed := old.size() - fresh.size()
	d.heap = fresh
	return reclaimed
}
