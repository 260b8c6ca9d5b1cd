package core

import (
	"fmt"

	"repro/internal/pcol"
	"repro/internal/storage"
	"repro/internal/vhash"
	"repro/internal/xmltree"
)

// hashFamily is the paper's string equi-index: the 32-bit hash H of every
// node's and attribute's string value — interior hashes folded from their
// children with the associative combination function C, never by
// re-reading text — and a B+tree from hash to postings.
type hashFamily struct {
	col   [2]pcol.Dense[uint32] // per side: hash by pre rank, by attribute id
	parts pcol.Sparse[[]uint32] // block partials by stable id (partials.go)
	postingTree
}

func newHashFamily(n, na int) *hashFamily {
	return &hashFamily{col: [2]pcol.Dense[uint32]{pcol.NewDense[uint32](n), pcol.NewDense[uint32](na)}}
}

func (h *hashFamily) label() string          { return "string" }
func (h *hashFamily) postings() *postingTree { return &h.postingTree }

// keys: every element, text and document node and every attribute has
// one posting; comments and PIs keep a hash but are not query targets.
func (h *hashFamily) keys(s *Snapshot, p Posting, buf []uint64) []uint64 {
	if !p.IsAttr && !indexedNodeKind(s.doc.Kind(p.Node)) {
		return buf
	}
	return append(buf, uint64(h.col[p.side()].At(p.pos())))
}

func (h *hashFamily) leaf(_ *Snapshot, p Posting, val []byte) {
	h.col[p.side()].Set(p.pos(), vhash.Hash(val))
}

func (h *hashFamily) refold(s *Snapshot, n xmltree.NodeID, starts []int32, dirty []xmltree.NodeID) {
	h.col[0].Set(int(n), foldPartials(s, h, &h.parts, n, starts, dirty))
}

// The hash monoid: C with identity 0; no hash absorbs.
func (h *hashFamily) identity() uint32                           { return vhash.Identity }
func (h *hashFamily) combine(acc, x uint32) (uint32, bool)       { return vhash.Combine(acc, x), false }
func (h *hashFamily) exact(uint32, uint32) bool                  { return true }
func (h *hashFamily) equal(a, b uint32) bool                     { return a == b }
func (h *hashFamily) state(_ *Snapshot, n xmltree.NodeID) uint32 { return h.col[0].At(int(n)) }

func (h *hashFamily) checkPartials(s *Snapshot) error { return checkPartials(s, h, &h.parts) }

func (h *hashFamily) check(_ *Snapshot, p Posting, val []byte) error {
	if got, want := h.col[p.side()].At(p.pos()), vhash.Hash(val); got != want {
		return fmt.Errorf("hash %#x, want %#x (value %.40q)", got, want, val)
	}
	return nil
}

func (h *hashFamily) folder(*Snapshot, bool) folder { return &hashFolder{h: h} }

// hashFolder writes hashes straight into the columns: concurrent passes
// cover disjoint positions, so nothing needs holding back.
type hashFolder struct {
	h     *hashFamily
	stack []uint32
}

func (f *hashFolder) open() { f.stack = append(f.stack, 0) }

func (f *hashFolder) leaf(p Posting, val []byte, contributes bool) {
	v := vhash.Hash(val)
	f.h.col[p.side()].Set(p.pos(), v)
	if contributes {
		f.fold(v)
	}
}

func (f *hashFolder) close(n xmltree.NodeID) {
	v := f.stack[len(f.stack)-1]
	f.stack = f.stack[:len(f.stack)-1]
	f.h.col[0].Set(int(n), v)
	f.fold(v)
}

func (f *hashFolder) fold(v uint32) {
	if n := len(f.stack); n > 0 {
		f.stack[n-1] = vhash.Combine(f.stack[n-1], v)
	}
}

func (f *hashFolder) flush() {}

func (h *hashFamily) draft() family {
	c := *h
	for side := range c.col {
		c.col[side] = h.col[side].Clone()
	}
	c.parts = h.parts.Clone()
	c.postingTree = h.postingTree.clone()
	return &c
}

func (h *hashFamily) splice(s *Snapshot, side, at, del, ins int) {
	if side == 0 {
		for _, st := range s.stableOf[at : at+del] {
			h.parts.Delete(st)
		}
	}
	h.col[side].Splice(at, del, make([]uint32, ins))
}

func (h *hashFamily) addStats(_ *Snapshot, st *IndexStats) {
	st.StringEntries = h.tree.Len()
	st.StringBytes = st.StringEntries * 8
}

func (h *hashFamily) addMem(ms *MemStats) {
	ms.StringTreeBytes = h.tree.MemBytes()
	ms.SideBytes += h.col[0].MemBytes() + h.col[1].MemBytes() + partialBytes(&h.parts)
}

// save persists the hash tree; the hashes are derived, refolded on load.
func (h *hashFamily) save(w *storage.Writer) error { return saveTree(w, SectionStrTree, h.tree) }

func (h *hashFamily) load(r *storage.Reader) (err error) {
	h.tree, err = loadTree(r, SectionStrTree)
	return err
}
