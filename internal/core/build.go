package core

import (
	"repro/internal/pcol"
	"repro/internal/xmltree"
)

// Build creates the selected value indices over doc in a single
// depth-first pass — the paper's Figure 7 algorithm. Text nodes are hashed
// with H and fed to the FSMs; every intermediate node's field is the fold
// of its contributing children through the combination function C and the
// SCT, so no node's string value is ever materialised. Every family runs
// through the same loop; the trees then bulk-load from the stored state.
func Build(doc *xmltree.Doc, opts Options) *Indexes {
	n := doc.NumNodes()
	na := doc.NumAttrs()
	s := &Snapshot{doc: doc, opts: opts}
	for side, size := range []int{n, na} { // a fresh document's stable ids are its positions
		stables, pos := s.stableIDs(side)
		*stables, *pos = pcol.NewDense[uint32](size), pcol.NewDense[int32](size)
		for i := range size {
			stables.Set(i, uint32(i))
			pos.Set(i, int32(i))
		}
	}
	s.fams = newFamilies(opts, n, na)
	workers := opts.workers()
	s.fold(workers)
	// The trees load from the computed state, and the planner statistics
	// (distinct counts, equi-depth histograms) derive from the same sorted
	// entries in one pass, with no scan of the loaded trees.
	s.loadTrees(s.fams, workers)
	return wrapSnapshot(s)
}

// fold computes every family's per-node state from the document: the
// Figure 7 pass, sharded over workers when there are several. Build runs
// it on a fresh document and Load on a loaded one — the state is derived
// data, so a snapshot never stores it.
func (s *Snapshot) fold(workers int) {
	if workers > 1 {
		s.buildParallel(workers)
		return
	}
	folds := s.folders(false)
	s.buildPass(0, xmltree.NodeID(s.doc.NumNodes()-1), folds)
	s.buildAttrs(0, xmltree.AttrID(s.doc.NumAttrs()-1), folds)
}

// newFamilies creates the empty families opts selects, in snapshot order.
func newFamilies(opts Options, n, na int) []family {
	var fams []family
	if opts.String {
		fams = append(fams, newHashFamily(n, na))
	}
	// orderTypeIDs intersects with the registry, so every ID resolves.
	for _, id := range orderTypeIDs(opts.Types) {
		spec, _ := LookupType(id)
		fams = append(fams, newTypedFamily(spec, n, na))
	}
	return fams
}

// buildPass computes the per-node state for the pre-order range
// [from, to], which must cover complete subtrees rooted at nodes whose
// parents lie outside the range (it is used for the whole document at
// Build time, for one shard of it during parallel builds, and for
// freshly inserted subtrees during structural updates). The range's root
// nodes are NOT folded into parents outside the range; callers refold
// those ancestors.
func (s *Snapshot) buildPass(from, to xmltree.NodeID, folds []folder) {
	doc := s.doc
	type frame struct{ node, end xmltree.NodeID }
	var stack []frame
	for i := from; i <= to; {
		kinds, _, _ := doc.Chunk(i) // the kind column a chunk at a time
		for _, k := range kinds[:min(len(kinds), int(to-i)+1)] {
			switch k {
			case xmltree.Element, xmltree.Document:
				stack = append(stack, frame{i, i + xmltree.NodeID(doc.Size(i))})
				for _, f := range folds {
					f.open()
				}
			default:
				// Comments and PIs carry their own value but contribute
				// nothing to ancestors (XDM).
				val := doc.ValueBytes(i)
				for _, f := range folds {
					f.leaf(NodePosting(i), val, k == xmltree.Text)
				}
			}
			// Close every frame whose subtree ends here.
			for len(stack) > 0 && stack[len(stack)-1].end == i {
				n := stack[len(stack)-1].node
				stack = stack[:len(stack)-1]
				for _, f := range folds {
					f.close(n)
				}
			}
			i++
		}
	}
}

// buildAttrs computes attribute state for the id range [from, to].
// Attribute values never contribute to ancestors, which also makes this
// pass trivially shardable: parallel builds carve [0, NumAttrs) into
// chunks and give each worker its own folders.
func (s *Snapshot) buildAttrs(from, to xmltree.AttrID, folds []folder) {
	for a := from; a <= to; a++ {
		val := s.doc.AttrValueBytes(a)
		for _, f := range folds {
			f.leaf(AttrPosting(a), val, false)
		}
	}
}

// indexedNodeKind reports whether tree nodes of kind k receive postings in
// the hash tree. Comments and PIs keep per-node fields but are not query
// targets.
func indexedNodeKind(k xmltree.Kind) bool {
	return k == xmltree.Element || k == xmltree.Text || k == xmltree.Document
}
