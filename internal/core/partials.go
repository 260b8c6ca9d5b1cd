package core

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"repro/internal/pcol"
	"repro/internal/xmltree"
)

// Block partials for the Figure 8 refold. For an element with more than B
// children the Snapshot records where each block of B children starts,
// relative to the element so that splices outside it keep them valid, and
// each stateful family keeps each block's fold. Keyed by stable id,
// derived by a commit's refold and never persisted, they let a text commit
// refold only its dirty blocks and combine ⌈k/B⌉ partials (Fig. 4).
const partialBlock = 64

// monoid is a stateful family's states under the fold: combine is
// associative and reports done once the result absorbs all that follows
// (the typed Reject); state is a tree node's stored state. exact reports
// whether combining a block's fold x onto acc gives what folding the
// block's children onto acc one by one gives, bit for bit.
type monoid[S any] interface {
	identity() S
	combine(acc, x S) (S, bool)
	exact(acc, x S) bool
	state(s *Snapshot, n xmltree.NodeID) S
	equal(a, b S) bool
}

// spanOf returns n's block starts (nil if n is not wide) and dirty leaves
// for a commit's refold: the recorded starts when a text commit finds
// them, else starts derived and recorded afresh with nil dirty leaves,
// which refold every block.
func (s *Snapshot) spanOf(n xmltree.NodeID, dirty []xmltree.NodeID) ([]int32, []xmltree.NodeID) {
	st := s.stable(NodePosting(n))
	if starts := s.blockStarts.Get(st); starts != nil && dirty != nil {
		return starts, dirty
	}
	if starts := blockStarts(s.doc, n); starts != nil {
		s.blockStarts.Set(st, starts)
		return starts, nil
	}
	s.blockStarts.Delete(st)
	return nil, nil
}

// blockStarts returns the offset from n of every B-th child of n, nil
// when n has at most B children.
func blockStarts(doc *xmltree.Doc, n xmltree.NodeID) (starts []int32) {
	for c, i := n+1, 0; c <= n+xmltree.NodeID(doc.Size(n)); c, i = c+xmltree.NodeID(doc.Size(c))+1, i+1 {
		if i%partialBlock == 0 {
			starts = append(starts, int32(c-n))
		}
	}
	if len(starts) < 2 {
		return nil
	}
	return starts
}

// foldPartials folds n's state from its children's stored states: through
// its block partials, refreshing those with a dirty leaf (all if dirty is
// nil), or by a plain walk if n has no blocks or a block is not exact.
func foldPartials[S any](s *Snapshot, m monoid[S], parts *pcol.Sparse[[]S], n xmltree.NodeID, starts []int32, dirty []xmltree.NodeID) S {
	st := s.stable(NodePosting(n))
	if starts == nil {
		parts.Delete(st)
		return foldRun(s, m, n, n+1, math.MaxInt)
	}
	states := parts.Get(st)
	if dirty == nil || states == nil {
		states = blockFolds(s, m, n, starts)
		parts.Set(st, states)
	} else {
		states = refresh(s, m, parts, n, starts, dirty, states)
	}
	acc := m.identity()
	for _, v := range states {
		if !m.exact(acc, v) {
			return foldRun(s, m, n, n+1, math.MaxInt)
		}
		var done bool
		if acc, done = m.combine(acc, v); done {
			break
		}
	}
	return acc
}

// blockFolds folds each block of B children of n that starts at starts.
func blockFolds[S any](s *Snapshot, m monoid[S], n xmltree.NodeID, starts []int32) []S {
	states := make([]S, len(starts))
	for j, off := range starts {
		states[j] = foldRun(s, m, n, n+xmltree.NodeID(off), partialBlock)
	}
	return states
}

// foldRun folds at most limit children of n from child c on, stopping at
// an absorbing state.
func foldRun[S any](s *Snapshot, m monoid[S], n, c xmltree.NodeID, limit int) S {
	doc := s.doc
	end := n + xmltree.NodeID(doc.Size(n))
	acc := m.identity()
	for i := 0; c <= end && i < limit; c, i = c+xmltree.NodeID(doc.Size(c))+1, i+1 {
		if xmltree.ContributesToParent(doc.Kind(c)) {
			var done bool
			if acc, done = m.combine(acc, m.state(s, c)); done {
				break
			}
		}
	}
	return acc
}

// refresh refolds n's blocks that hold a dirty leaf and stores the states
// as a copy if any changes (a Reject block mostly stays Reject).
func refresh[S any](s *Snapshot, m monoid[S], parts *pcol.Sparse[[]S], n xmltree.NodeID, starts []int32, dirty []xmltree.NodeID, states []S) []S {
	last, end, copied := -1, n+xmltree.NodeID(s.doc.Size(n)), false
	for i, _ := slices.BinarySearch(dirty, n+1); i < len(dirty) && dirty[i] <= end; i++ {
		// The leaf's block is the last starting at or before it.
		j, _ := slices.BinarySearch(starts, int32(dirty[i]-n)+1)
		if j--; j == last {
			continue
		}
		last = j
		if v := foldRun(s, m, n, n+xmltree.NodeID(starts[j]), partialBlock); !m.equal(v, states[j]) {
			if !copied {
				states, copied = slices.Clone(states), true
				parts.Set(s.stable(NodePosting(n)), states)
			}
			states[j] = v
		}
	}
	return states
}

// checkPartials requires parts and the block starts to cover the same live
// elements and to be what n's child structure and its blocks' folds derive.
func checkPartials[S any](s *Snapshot, m monoid[S], parts *pcol.Sparse[[]S]) error {
	if parts.Len() != s.blockStarts.Len() {
		return fmt.Errorf("states for %d elements, %d have block starts", parts.Len(), s.blockStarts.Len())
	}
	for st, states := range parts.All() {
		n := s.NodeOfStable(st)
		if n == xmltree.InvalidNode {
			return fmt.Errorf("kept for removed stable id %d", st)
		}
		starts := blockStarts(s.doc, n)
		if starts == nil || !slices.Equal(s.blockStarts.Get(st), starts) || !slices.EqualFunc(states, blockFolds(s, m, n, starts), m.equal) {
			return fmt.Errorf("node %d: block starts or states differ from its children's blocks of %d", n, partialBlock)
		}
	}
	return nil
}

// partialBytes counts a partials column: its map and the arrays it holds.
func partialBytes[S any](parts *pcol.Sparse[[]S]) int {
	b := parts.MemBytes()
	for _, states := range parts.All() {
		b += cap(states) * int(unsafe.Sizeof(states[0]))
	}
	return b
}
