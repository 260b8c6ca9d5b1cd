// Package pcol implements persistent columns: arrays that a
// copy-on-write snapshot can clone in time proportional to the number of
// chunks, not elements, and whose writes copy only the chunk they touch.
//
// Both column types split their positions into chunks of 1024 and keep
// a spine of chunk pointers. Ownership follows the scheme of
// internal/btree: every chunk carries the generation of the handle that
// created it, and a handle writes a chunk in place only when the
// generations match. Clone copies the spine and bumps the generation, so
// the first write through the clone to any chunk copies that chunk, and
// the source's view is never disturbed. A handle that has been cloned is
// therefore frozen by convention: it may be read for as long as anyone
// likes, concurrently with writes through its clones, but never written
// again. Two clones of the same handle share a generation yet never a
// copied chunk, because each copies shared chunks before writing them.
package pcol

import (
	"fmt"
	"iter"
	"slices"
	"unsafe"
)

// chunkLen is the number of positions (Dense) or ids (Sparse) one chunk
// covers. A clone copies one spine pointer per chunk; a write copies one
// chunk.
const (
	chunkBits = 10
	chunkLen  = 1 << chunkBits
	chunkMask = chunkLen - 1
)

// Dense is a persistent array of T indexed 0..Len()-1. The zero value is
// an empty column.
type Dense[T any] struct {
	spine []*denseChunk[T]
	n     int
	gen   uint64
}

// denseChunk is a full-size block of values: At indexes it without a
// length check, and only the last chunk of a column is partly unused.
type denseChunk[T any] struct {
	gen  uint64
	vals [chunkLen]T
}

// NewDense returns a column of n zero values.
func NewDense[T any](n int) Dense[T] {
	d := Dense[T]{spine: make([]*denseChunk[T], 0, (n+chunkMask)>>chunkBits)}
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

// Set writes v at position i, first copying the chunk when an older
// handle shares it.
func (d *Dense[T]) Set(i int, v T) {
	if uint(i) >= uint(d.n) {
		panic("pcol: index out of range")
	}
	d.own(i >> chunkBits).vals[i&chunkMask] = v
}

// own returns chunk ci, copied and stamped first unless d created it.
func (d *Dense[T]) own(ci int) *denseChunk[T] {
	c := d.spine[ci]
	if c.gen != d.gen {
		cp := *c
		cp.gen = d.gen
		c = &cp
		d.spine[ci] = c
	}
	return c
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
		d.spine = append(d.spine, &denseChunk[T]{gen: d.gen})
	}
	d.n = n
}

// Clone returns a handle with the same contents that shares every chunk
// with d; writes through either copy what they touch. d must not be
// written afterwards (see the package comment).
func (d *Dense[T]) Clone() Dense[T] {
	return Dense[T]{spine: slices.Clone(d.spine), n: d.n, gen: d.gen + 1}
}

// Splice removes del positions at at and inserts ins in their place.
// Chunks wholly before at stay shared; the rest of the column is
// rewritten into fresh chunks.
func (d *Dense[T]) Splice(at, del int, ins []T) {
	if at < 0 || del < 0 || at+del > d.n {
		panic(fmt.Sprintf("pcol: splice [%d:%d] out of range [0:%d]", at, at+del, d.n))
	}
	first := at >> chunkBits
	tail := d.AppendRange(nil, first<<chunkBits, at)
	tail = append(tail, ins...)
	tail = d.AppendRange(tail, at+del, d.n)
	clear(d.spine[first:])
	d.spine = d.spine[:first]
	d.n = first << chunkBits
	for len(tail) > 0 {
		c := &denseChunk[T]{gen: d.gen}
		k := copy(c.vals[:], tail)
		d.spine = append(d.spine, c)
		d.n += k
		tail = tail[k:]
	}
}

// AppendRange appends the values at positions [lo, hi) to dst.
func (d *Dense[T]) AppendRange(dst []T, lo, hi int) []T {
	for lo < hi {
		c := d.spine[lo>>chunkBits]
		end := min(hi, (lo|chunkMask)+1)
		dst = append(dst, c.vals[lo&chunkMask:(end-1)&chunkMask+1]...)
		lo = end
	}
	return dst
}

// MemBytes reports the spine and chunks the column references, whether
// or not other handles share them.
func (d *Dense[T]) MemBytes() int {
	return cap(d.spine)*int(unsafe.Sizeof((*denseChunk[T])(nil))) +
		len(d.spine)*int(unsafe.Sizeof(denseChunk[T]{}))
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
