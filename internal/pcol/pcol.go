// Package pcol implements persistent columns: arrays that a
// copy-on-write snapshot can clone in O(1), and whose writes copy only
// the chunk they touch and, once per handle, the spine of chunk
// pointers.
//
// Both column types split their positions into chunks of 1024 and keep
// a spine of chunk pointers. Ownership follows the scheme of
// internal/btree: every chunk carries the generation of the handle that
// created it (a Dense chunk beside its pointer in the spine, so that the
// chunk itself is exactly its values), and a handle writes a chunk in
// place only when the generations match. Clone bumps the generation, so
// the first write through the clone to any chunk copies that chunk, and
// the source's view is never disturbed. A handle that has been cloned is
// therefore frozen by convention: it may be read for as long as anyone
// likes, concurrently with writes through its clones, but never written
// again. Two clones of the same handle share a generation yet never a
// copied chunk, because each copies shared chunks before writing them.
//
// A Dense clone also shares the spine itself until its first write
// takes a copy of it, so a clone that is never written costs nothing.
// Every spine mutation goes through that copy first: sibling clones
// never append into one backing array.
package pcol

import (
	"fmt"
	"iter"
	"slices"
	"unsafe"
)

// chunkLen is the number of positions (Dense) or ids (Sparse) one chunk
// covers. A write copies one chunk.
const (
	chunkBits = 10
	chunkLen  = 1 << chunkBits
	chunkMask = chunkLen - 1
)

// Dense is a persistent array of T indexed 0..Len()-1. The zero value is
// an empty column.
type Dense[T any] struct {
	spine  []denseSlot[T]
	n      int
	gen    uint64
	shared bool // spine is another handle's too: copy it before changing it
}

// denseSlot is one spine entry: a full-size block of values, which At
// indexes without a length check (only the last chunk of a column is
// partly unused), and the generation of the handle that created it.
type denseSlot[T any] struct {
	vals *[chunkLen]T
	gen  uint64
}

// NewDense returns a column of n zero values.
func NewDense[T any](n int) Dense[T] {
	d := Dense[T]{spine: make([]denseSlot[T], 0, (n+chunkMask)>>chunkBits)}
	d.grow(n)
	return d
}

// Len reports the number of positions.
func (d *Dense[T]) Len() int { return d.n }

// At returns the value at position i. It is the read-hot path of every
// column, small enough to inline.
func (d *Dense[T]) At(i int) T {
	if uint(i) >= uint(d.n) {
		panic("pcol: index out of range")
	}
	return d.spine[i>>chunkBits].vals[i&chunkMask]
}

// Chunk returns the values from position i to the end of i's chunk or
// of the column, whichever comes first, in place, for loops that walk a
// range a chunk at a time. The slice must not be written.
func (d *Dense[T]) Chunk(i int) []T {
	if uint(i) >= uint(d.n) {
		panic("pcol: index out of range")
	}
	return d.spine[i>>chunkBits].vals[i&chunkMask : min(d.n-(i&^chunkMask), chunkLen)]
}

// Set writes v at position i, first copying the chunk when an older
// handle shares it.
func (d *Dense[T]) Set(i int, v T) {
	if uint(i) >= uint(d.n) {
		panic("pcol: index out of range")
	}
	d.own(i >> chunkBits)[i&chunkMask] = v
}

// own returns chunk ci, copied and stamped first unless d created it.
func (d *Dense[T]) own(ci int) *[chunkLen]T {
	if s := d.spine[ci]; s.gen != d.gen {
		d.ownSpine()
		c := new([chunkLen]T)
		*c = *s.vals
		d.spine[ci] = denseSlot[T]{c, d.gen}
	}
	return d.spine[ci].vals
}

// ownSpine gives d a spine of its own before d changes it.
func (d *Dense[T]) ownSpine() {
	if d.shared {
		d.spine, d.shared = slices.Clone(d.spine), false
	}
}

// Append adds v as position Len().
func (d *Dense[T]) Append(v T) {
	d.grow(d.n + 1)
	d.Set(d.n-1, v)
}

// grow extends the column to n positions with zero values. Positions
// past the old length inside its last chunk are zero already: every
// write stays below the length.
func (d *Dense[T]) grow(n int) {
	for len(d.spine)<<chunkBits < n {
		d.ownSpine()
		d.spine = append(d.spine, denseSlot[T]{new([chunkLen]T), d.gen})
	}
	d.n = n
}

// Clone returns a handle with the same contents that shares every chunk
// and the spine with d; writes through either copy what they touch. d
// must not be written afterwards (see the package comment).
func (d *Dense[T]) Clone() Dense[T] {
	return Dense[T]{spine: d.spine, n: d.n, gen: d.gen + 1, shared: true}
}

// Splice removes del positions at at and inserts ins in their place.
// Chunks wholly before at stay shared; the rest of the column is
// rewritten into fresh chunks. Splice at Len() on an empty column fills
// it with one copy of ins.
func (d *Dense[T]) Splice(at, del int, ins []T) {
	if at < 0 || del < 0 || at+del > d.n {
		panic(fmt.Sprintf("pcol: splice [%d:%d] out of range [0:%d]", at, at+del, d.n))
	}
	first := at >> chunkBits
	head := d.AppendRange(nil, first<<chunkBits, at)
	rest := d.AppendRange(nil, at+del, d.n)
	d.ownSpine()
	clear(d.spine[first:])
	d.spine = slices.Grow(d.spine[:first], (len(head)+len(ins)+len(rest)+chunkMask)>>chunkBits)
	d.n = first << chunkBits
	for _, vals := range [][]T{head, ins, rest} {
		for len(vals) > 0 {
			if d.n&chunkMask == 0 {
				d.spine = append(d.spine, denseSlot[T]{new([chunkLen]T), d.gen})
			}
			k := copy(d.spine[len(d.spine)-1].vals[d.n&chunkMask:], vals)
			d.n += k
			vals = vals[k:]
		}
	}
}

// AppendRange appends the values at positions [lo, hi) to dst.
func (d *Dense[T]) AppendRange(dst []T, lo, hi int) []T {
	for lo < hi {
		c := d.Chunk(lo)
		c = c[:min(len(c), hi-lo)]
		dst = append(dst, c...)
		lo += len(c)
	}
	return dst
}

// MemBytes reports the spine and chunks the column references, whether
// or not other handles share them.
func (d *Dense[T]) MemBytes() int {
	return cap(d.spine)*int(unsafe.Sizeof(denseSlot[T]{})) +
		len(d.spine)*int(unsafe.Sizeof([chunkLen]T{}))
}

// Sparse is a persistent map from uint32 ids to T. Ids are grouped into
// chunks of chunkLen consecutive ids; a chunk holds the ascending low
// bits of its present ids and their values, so a read binary-searches
// one chunk and a write copies one. The zero value is an empty map.
type Sparse[T any] struct {
	spine []*sparseChunk[T] // nil: no id of that chunk is present
	n     int
	gen   uint64
}

type sparseChunk[T any] struct {
	gen  uint64
	low  []uint16 // ascending id & chunkMask
	vals []T
}

// Len reports the number of present ids.
func (s *Sparse[T]) Len() int { return s.n }

// find returns id's chunk and its index there, or the index id would
// take, with found false.
func (s *Sparse[T]) find(id uint32) (c *sparseChunk[T], i int, found bool) {
	ci := int(id >> chunkBits)
	if ci >= len(s.spine) || s.spine[ci] == nil {
		return nil, 0, false
	}
	c = s.spine[ci]
	i, found = slices.BinarySearch(c.low, uint16(id&chunkMask))
	return c, i, found
}

// Get returns id's value, or the zero value when id is absent.
func (s *Sparse[T]) Get(id uint32) T {
	c, i, ok := s.find(id)
	if !ok {
		var zero T
		return zero
	}
	return c.vals[i]
}

// own returns chunk ci, created or copied first unless s created it.
// A copy has room for one more entry.
func (s *Sparse[T]) own(ci int) *sparseChunk[T] {
	if ci >= len(s.spine) {
		s.spine = append(s.spine, make([]*sparseChunk[T], ci+1-len(s.spine))...)
	}
	c := s.spine[ci]
	switch {
	case c == nil:
		c = &sparseChunk[T]{gen: s.gen}
	case c.gen != s.gen:
		c = &sparseChunk[T]{gen: s.gen, low: regrow(c.low, 1), vals: regrow(c.vals, 1)}
	default:
		return c
	}
	s.spine[ci] = c
	return c
}

// Set stores v under id.
func (s *Sparse[T]) Set(id uint32, v T) {
	c := s.own(int(id >> chunkBits))
	i, found := slices.BinarySearch(c.low, uint16(id&chunkMask))
	if found {
		c.vals[i] = v
		return
	}
	if len(c.low) == cap(c.low) {
		// Grow by an eighth, not append's doubling: a chunk filled in id
		// order at build time keeps little slack.
		extra := len(c.low)/8 + 1
		c.low, c.vals = regrow(c.low, extra), regrow(c.vals, extra)
	}
	c.low = slices.Insert(c.low, i, uint16(id&chunkMask))
	c.vals = slices.Insert(c.vals, i, v)
	s.n++
}

// regrow copies s into a new array with room for extra more elements.
func regrow[E any](s []E, extra int) []E {
	return append(make([]E, 0, len(s)+extra), s...)
}

// Delete removes id; deleting an absent id copies nothing.
func (s *Sparse[T]) Delete(id uint32) {
	_, i, found := s.find(id)
	if !found {
		return
	}
	ci := int(id >> chunkBits)
	c := s.own(ci)
	c.low = slices.Delete(c.low, i, i+1)
	c.vals = slices.Delete(c.vals, i, i+1)
	s.n--
	if len(c.low) == 0 {
		s.spine[ci] = nil
	}
}

// Clone returns a handle with the same contents that shares every chunk
// with s. s must not be written afterwards (see the package comment).
func (s *Sparse[T]) Clone() Sparse[T] {
	return Sparse[T]{spine: slices.Clone(s.spine), n: s.n, gen: s.gen + 1}
}

// All yields the present ids in ascending order with their values.
func (s *Sparse[T]) All() iter.Seq2[uint32, T] {
	return func(yield func(uint32, T) bool) {
		for ci, c := range s.spine {
			if c == nil {
				continue
			}
			for i, lo := range c.low {
				if !yield(uint32(ci)<<chunkBits|uint32(lo), c.vals[i]) {
					return
				}
			}
		}
	}
}

// MemBytes reports the spine, chunk headers, low-bits arrays and value
// slots the map references (not what the values themselves point to).
func (s *Sparse[T]) MemBytes() int {
	var zero T
	b := cap(s.spine) * int(unsafe.Sizeof((*sparseChunk[T])(nil)))
	for _, c := range s.spine {
		if c != nil {
			b += int(unsafe.Sizeof(*c)) + cap(c.low)*2 + cap(c.vals)*int(unsafe.Sizeof(zero))
		}
	}
	return b
}
