package core

import (
	"fmt"
	"io"

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
	col [2]pcol.Dense[uint32] // per side: hash by pre rank, by attribute id
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

func (h *hashFamily) refold(s *Snapshot, n xmltree.NodeID) {
	doc := s.doc
	var acc uint32
	for c := doc.FirstChild(n); c != xmltree.InvalidNode; c = doc.NextSibling(c) {
		if xmltree.ContributesToParent(doc.Kind(c)) {
			acc = vhash.Combine(acc, h.col[0].At(int(c)))
		}
	}
	h.col[0].Set(int(n), acc)
}

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
	c.postingTree = h.postingTree.clone()
	return &c
}

func (h *hashFamily) splice(_ *Snapshot, side, at, del, ins int) {
	h.col[side].Splice(at, del, make([]uint32, ins))
}

func (h *hashFamily) addStats(_ *Snapshot, st *IndexStats) {
	st.StringEntries = h.tree.Len()
	st.StringBytes = st.StringEntries * 8
}

func (h *hashFamily) addMem(ms *MemStats) {
	ms.StringTreeBytes = h.tree.MemBytes()
	ms.UnpackedTreeBytes += h.tree.UnpackedBytes()
	ms.SideBytes += h.col[0].MemBytes() + h.col[1].MemBytes()
}

// save persists only the hashes of value-carrying leaves (4 bytes each,
// fixed-width, in document order) and of attributes: element and
// document hashes refold from their children on load — derived data.
func (h *hashFamily) save(w *storage.Writer, s *Snapshot) error {
	err := writeSection(w, SectionHash, func(sec io.Writer) error {
		doc := s.doc
		leaves := make([]uint32, 0, doc.NumNodes())
		for i := 0; i < doc.NumNodes(); i++ {
			if isLeafKind(doc.Kind(xmltree.NodeID(i))) {
				leaves = append(leaves, h.col[0].At(i))
			}
		}
		if err := writeU32Fixed(sec, leaves); err != nil {
			return err
		}
		return writeU32Fixed(sec, h.col[1].AppendRange(nil, 0, h.col[1].Len()))
	})
	if err != nil {
		return err
	}
	return writeSection(w, SectionStrTree, func(sec io.Writer) error { return writeTree(sec, h.tree) })
}

func (h *hashFamily) load(r *storage.Reader, s *Snapshot) error {
	doc := s.doc
	err := readSection(r, SectionHash, func(sec io.Reader) error {
		leaves := 0
		for i := 0; i < doc.NumNodes(); i++ {
			if isLeafKind(doc.Kind(xmltree.NodeID(i))) {
				leaves++
			}
		}
		leafHashes, err := readU32Fixed(sec, leaves)
		if err != nil {
			return err
		}
		li := 0
		for i := 0; i < doc.NumNodes(); i++ {
			if isLeafKind(doc.Kind(xmltree.NodeID(i))) {
				h.col[0].Set(i, leafHashes[li])
				li++
			}
		}
		attrHashes, err := readU32Fixed(sec, doc.NumAttrs())
		for a, v := range attrHashes {
			h.col[1].Set(a, v)
		}
		return err
	})
	if err != nil {
		return err
	}
	return readSection(r, SectionStrTree, func(sec io.Reader) (err error) {
		h.tree, err = readTree(sec)
		return err
	})
}
