package core

import (
	"fmt"
	"iter"
	"slices"

	"repro/internal/btree"
	"repro/internal/pcol"
	"repro/internal/storage"
	"repro/internal/xmltree"
)

// family is one value index over the document. The paper's string index
// and every typed index are the same construction: a per-leaf state
// folded over an element's contributing children — the hash by the
// combination function C (associative, identity 0), a typed fragment by
// the SCT monoid (absorbing Reject) — plus the keys each posting
// contributes to a B+tree. The q-gram substring index is the degenerate
// case: its keys come straight from a leaf's value and it folds nothing.
//
// A Snapshot holds its families in one ordered list: the hash family
// (Options.String), one typed family per enabled registry entry in
// registry order, then the gram family once EnableSubstring ran. Every
// build, commit, draft, verify, stats and persistence path is one loop
// over that list; the implementations are in hash.go, typed.go and
// substr.go.
type family interface {
	// label names the family in diagnostics.
	label() string
	// postings returns the family's B+tree with its statistics.
	postings() *postingTree
	// keys appends p's current tree keys to buf, ascending. The family's
	// membership rule (which nodes its tree holds) lives here.
	keys(s *Snapshot, p Posting, buf []uint64) []uint64
	// leaf sets p's state from its character data val.
	leaf(s *Snapshot, p Posting, val []byte)
	// refold recomputes element n's state from its children's stored
	// states — the Figure 8 step; no text is read — through its block
	// partials (partials.go), which checkPartials verifies.
	refold(s *Snapshot, n xmltree.NodeID, starts []int32, dirty []xmltree.NodeID)
	checkPartials(s *Snapshot) error
	// check reports an error unless p's stored state is the one val
	// produces.
	check(s *Snapshot, p Posting, val []byte) error
	// folder returns the family's accumulator for one Figure 7 pass, or
	// nil when it keeps no state. A held folder keeps writes to shared
	// tables back until flush, so passes over disjoint ranges can run
	// concurrently.
	folder(s *Snapshot, held bool) folder
	// draft returns a copy that a commit may write, sharing the state
	// chunks and tree nodes it leaves untouched with f.
	draft() family
	// splice removes the positions at at of the stable ids gone from one
	// side of the state and inserts ins empty ones, in step with the
	// document.
	splice(side, at int, gone []uint32, ins int)
	// addStats and addMem add the family's share to Stats and MemStats.
	addStats(s *Snapshot, st *IndexStats)
	addMem(ms *MemStats)
	// save writes the family's one snapshot section, its B+tree; load
	// reads it back with its statistics. The per-node state is not
	// persisted: Load derives it with Build's fold.
	save(w *storage.Writer) error
	load(r *storage.Reader) error
}

// folder is one family's running fold over a depth-first pass: open
// enters an element, leaf sets a leaf's or attribute's state and folds it
// into the open element when it contributes, close stores an element's
// folded state and folds it into its parent. Elements whose parents lie
// outside the pass are stored but folded nowhere.
type folder interface {
	open()
	leaf(p Posting, val []byte, contributes bool)
	close(n xmltree.NodeID)
	flush()
}

// side indexes per-posting state: 0 for tree nodes, 1 for attributes.
func (p Posting) side() int {
	if p.IsAttr {
		return 1
	}
	return 0
}

// pos is p's position within its side: pre rank or attribute id.
func (p Posting) pos() int {
	if p.IsAttr {
		return int(p.Attr)
	}
	return int(p.Node)
}

func (p Posting) describe() string {
	if p.IsAttr {
		return fmt.Sprintf("attr %d", p.Attr)
	}
	return fmt.Sprintf("node %d", p.Node)
}

// postingTree is a family's B+tree together with the planner statistics
// over it (see histogram.go). Every posting change funnels through insert
// and delete, keeping bucket counts exact between histogram rebuilds.
type postingTree struct {
	tree  *btree.Tree
	stats *keyStats
}

func (pt *postingTree) insert(key uint64, posting uint32) {
	if pt.tree.Insert(key, posting) && pt.stats != nil {
		pt.stats.noteInsert(key)
	}
}

func (pt *postingTree) delete(key uint64, posting uint32) {
	if pt.tree.Delete(key, posting) && pt.stats != nil {
		pt.stats.noteDelete(key)
	}
}

// diff merges a posting's ascending key sets from before and after a
// mutation, deleting the keys only old has and inserting those only new
// has.
func (pt *postingTree) diff(posting uint32, old, new []uint64) {
	i, j := 0, 0
	for i < len(old) || j < len(new) {
		switch {
		case j >= len(new) || (i < len(old) && old[i] < new[j]):
			pt.delete(old[i], posting)
			i++
		case i >= len(old) || new[j] < old[i]:
			pt.insert(new[j], posting)
			j++
		default:
			i++
			j++
		}
	}
}

// clone gives a draft its own tree handle (O(1): the draft path-copies
// what it touches) and statistics.
func (pt postingTree) clone() postingTree {
	return postingTree{tree: pt.tree.Clone(), stats: pt.stats.clone()}
}

// bulkLoad replaces the tree with one loaded from entries, sorted by
// (key, posting), and derives its statistics from the same slice.
func (pt *postingTree) bulkLoad(entries []btree.Entry) {
	pt.tree = btree.NewFromSorted(entries)
	pt.stats = buildKeyStats(len(entries), func(yield func(uint64) bool) {
		for _, e := range entries {
			if !yield(e.Key) {
				return
			}
		}
	})
}

// maintain rebuilds a histogram whose churn crossed the rebuild
// threshold; a rebuild is O(tree) after O(tree/4) churn, so the amortised
// cost per updated posting is O(1).
func (pt *postingTree) maintain() {
	if pt.stats != nil && pt.stats.stale() {
		pt.stats = treeKeyStats(pt.tree)
	}
}

// checkStats requires the maintained histogram population to track the
// tree exactly (bounds may be stale between rebuilds, counts never are).
func (pt *postingTree) checkStats() error {
	if pt.stats == nil {
		return nil
	}
	population := 0
	for _, c := range pt.stats.counts {
		population += c
	}
	if population != pt.tree.Len() {
		return fmt.Errorf("histogram population %d, tree has %d", population, pt.tree.Len())
	}
	if pt.stats.total != pt.tree.Len() {
		return fmt.Errorf("stats total %d, tree has %d", pt.stats.total, pt.tree.Len())
	}
	return nil
}

// --- the loops over families ---

// stable returns p's stable id; packed its B+tree posting value.
func (s *Snapshot) stable(p Posting) uint32 {
	stables, _ := s.stableIDs(p.side())
	return stables.At(p.pos())
}

func (s *Snapshot) packed(p Posting) uint32 { return packPosting(s.stable(p), p.IsAttr) }

// stableIDs returns one side's stable-id column and its inverse.
func (s *Snapshot) stableIDs(side int) (stables *pcol.Dense[uint32], pos *pcol.Dense[int32]) {
	if side == 1 {
		return &s.attrStableOf, &s.attrOf
	}
	return &s.stableOf, &s.preOf
}

// isLeafKind reports whether nodes of kind k carry their own character
// data: texts, comments and PIs.
func isLeafKind(k xmltree.Kind) bool {
	return k == xmltree.Text || k == xmltree.Comment || k == xmltree.PI
}

// valueBytes returns a leaf's or attribute's own character data.
func (s *Snapshot) valueBytes(p Posting) []byte {
	if p.IsAttr {
		return s.doc.AttrValueBytes(p.Attr)
	}
	return s.doc.ValueBytes(p.Node)
}

// postingRange returns range r of the posting space — every tree node
// in pre order, then every attribute — cut into ranges contiguous
// ranges. Range 0 of 1 is the whole space.
func (s *Snapshot) postingRange(r, ranges int) iter.Seq[Posting] {
	return func(yield func(Posting) bool) {
		nn := s.doc.NumNodes()
		total := nn + s.doc.NumAttrs()
		for i := total * r / ranges; i < total*(r+1)/ranges; i++ {
			p := AttrPosting(xmltree.AttrID(i - nn))
			if i < nn {
				p = NodePosting(xmltree.NodeID(i))
			}
			if !yield(p) {
				return
			}
		}
	}
}

// entryChunk is the capacity of one key-generation chunk: a worker fills
// fixed-size chunks instead of regrowing one slice, so every entry is
// copied once, into the joined result.
const entryChunk = 16 << 10

// entries lists every entry family f's tree must hold, as derived from
// the stored state, sorted by (key, posting). It is the bulk-load input
// of Build and EnableSubstring and the ground truth Verify compares
// trees against. Up to workers goroutines generate the keys, one
// contiguous posting range each, and then sort them.
func (s *Snapshot) entries(f family, workers int) []btree.Entry {
	chunks := make([][][]btree.Entry, workers)
	parallelFor(workers, workers, func(r int) {
		var keys []uint64
		var full [][]btree.Entry
		var chunk []btree.Entry
		for p := range s.postingRange(r, workers) {
			if keys = f.keys(s, p, keys[:0]); len(keys) == 0 {
				continue
			}
			posting := s.packed(p)
			for _, k := range keys {
				if len(chunk) == cap(chunk) {
					full = append(full, chunk)
					chunk = make([]btree.Entry, 0, entryChunk)
				}
				chunk = append(chunk, btree.Entry{Key: k, Val: posting})
			}
		}
		chunks[r] = append(full, chunk)
	})
	// Joined by hand: slices.Concat allocates the result twice under the
	// race detector.
	all, n := slices.Concat(chunks...), 0
	for _, c := range all {
		n += len(c)
	}
	out := make([]btree.Entry, 0, n)
	for _, c := range all {
		out = append(out, c...)
	}
	btree.SortEntriesParallel(out, workers)
	return out
}

// loadTrees bulk-loads the trees of fams from their stored state. With
// workers > 1 the trees load concurrently, each one's key generation and
// sort fanning out over the worker budget divided by the number of
// concurrently loading trees, so CPU-bound goroutines stay within
// Options.Parallelism. The loaded trees are identical for any worker
// count: entries sort by (key, posting).
func (s *Snapshot) loadTrees(fams []family, workers int) {
	concurrent := min(len(fams), workers)
	perTree := 1
	if concurrent > 0 {
		perTree = max(workers/concurrent, 1)
	}
	parallelFor(workers, len(fams), func(i int) {
		fams[i].postings().bulkLoad(s.entries(fams[i], perTree))
	})
}

// folders opens one Figure 7 accumulator per stateful family.
func (s *Snapshot) folders(held bool) []folder {
	var out []folder
	for _, f := range s.fams {
		if fd := f.folder(s, held); fd != nil {
			out = append(out, fd)
		}
	}
	return out
}

// captureKeys snapshots p's keys in every family before a mutation. The
// result lives in the writer's scratch buffers: consume it (reindex)
// before the next capture.
func (s *Snapshot) captureKeys(p Posting) [][]uint64 {
	if len(s.scratchOld) < len(s.fams) {
		s.scratchOld = make([][]uint64, len(s.fams))
	}
	old := s.scratchOld[:len(s.fams)]
	for i, f := range s.fams {
		old[i] = f.keys(s, p, old[i][:0])
	}
	return old
}

// reindex repairs f's tree for p against p's keys before the mutation.
func (s *Snapshot) reindex(f family, p Posting, old []uint64) {
	s.scratchNew = f.keys(s, p, s.scratchNew[:0])
	f.postings().diff(s.packed(p), old, s.scratchNew)
}

// post adds (add) or removes p's entries in every family's tree.
func (s *Snapshot) post(p Posting, add bool) {
	for _, f := range s.fams {
		keys := f.keys(s, p, s.scratchNew[:0])
		s.scratchNew = keys
		if add {
			f.postings().diff(s.packed(p), nil, keys)
		} else {
			f.postings().diff(s.packed(p), keys, nil)
		}
	}
}

// refreshLeaf recomputes p's state from its new character data in every
// family and repairs each tree against p's keys captured before the
// write.
func (s *Snapshot) refreshLeaf(p Posting, old [][]uint64) {
	val := s.valueBytes(p)
	for i, f := range s.fams {
		f.leaf(s, p, val)
		s.reindex(f, p, old[i])
	}
}

// captureChain snapshots the keys of n and its ancestors, for a
// structural update: an element's tree membership depends on its child
// structure (combined vs wrapper), so the pre-image is taken before the
// structure changes. The chain is in descending pre order, as
// refoldAncestors wants it.
func (s *Snapshot) captureChain(n xmltree.NodeID) (chain []xmltree.NodeID, olds [][][]uint64) {
	for ; n != xmltree.InvalidNode; n = s.doc.Parent(n) {
		keys := make([][]uint64, len(s.fams))
		for i, f := range s.fams {
			keys[i] = f.keys(s, NodePosting(n), nil)
		}
		chain = append(chain, n)
		olds = append(olds, keys)
	}
	return chain, olds
}

// refoldAncestors recomputes interior nodes given in descending pre order
// (children before parents) in every family and repairs the trees.
// olds[i], when olds is non-nil, holds order[i]'s keys captured before a
// structural change; otherwise keys are captured just before each refold.
// dirty lists, ascending, the leaves a text commit rewrote; a structural
// commit passes nil.
func (s *Snapshot) refoldAncestors(order []xmltree.NodeID, olds [][][]uint64, dirty []xmltree.NodeID) {
	for i, n := range order {
		p := NodePosting(n)
		var old [][]uint64
		if olds != nil {
			old = olds[i]
		} else {
			old = s.captureKeys(p)
		}
		starts, blocksDirty := s.spanOf(n, dirty)
		for j, f := range s.fams {
			f.refold(s, n, starts, blocksDirty)
			s.reindex(f, p, old[j])
		}
	}
}

// spliceSide removes del positions at at from one side (0 tree nodes, 1
// attributes) and inserts ins new ones, in step with the document: every
// family's state, the stable-id column and its inverse. Removed stable
// ids resolve to nothing from now on; inserted positions get fresh ones,
// appended to the inverse.
func (s *Snapshot) spliceSide(side, at, del, ins int) {
	if del == 0 && ins == 0 {
		return
	}
	stables, pos := s.stableIDs(side)
	gone := stables.AppendRange(nil, at, at+del)
	for _, f := range s.fams {
		f.splice(side, at, gone, ins)
	}
	for _, st := range gone {
		pos.Set(int(st), -1)
		if side == 0 {
			s.blockStarts.Delete(st)
		}
	}
	fresh := make([]uint32, ins)
	for k := range fresh {
		fresh[k] = uint32(pos.Len())
		pos.Append(int32(at + k))
	}
	stables.Splice(at, del, fresh)
	for i := at + ins; i < stables.Len(); i++ {
		pos.Set(int(stables.At(i)), int32(i))
	}
}

// maintainStats refreshes every stale histogram. Called at the end of
// every mutating entry point, on the private draft.
func (s *Snapshot) maintainStats() {
	for _, f := range s.fams {
		f.postings().maintain()
	}
}
