package core

// Parallel index construction. The paper's Figure 7 algorithm is a
// single depth-first fold, but both of its ingredients are associative —
// the hash combination function C and the SCT's monoid composition — so
// the fold splits at subtree boundaries without changing any result:
//
//  1. planShards carves the document into contiguous runs of complete
//     subtrees ("shards") hanging off a small set of ancestors (the
//     "spine": the document node plus every element too large to hand to
//     one worker whole).
//  2. A worker pool runs the Figure 7 pass over each shard with private
//     folders, so per-node hashes and FSM elements land in the shared
//     columns (disjoint ranges, no contention) while the map-bound items
//     stay worker-local.
//  3. The folders flush into the shared side tables (one goroutine per
//     family — the maps are per family, so this too is contention free).
//  4. The spine folds serially, children-first, exactly the way the
//     Figure 8 update algorithm refolds interiors: from the children's
//     stored fields, never from text. SCT early-reject semantics are
//     preserved bit for bit because the spine fold applies the same
//     typed combine over the same child sequence the serial pass would.
//  5. The B+trees bulk-load in parallel (see loadTrees): sorting by
//     (key, posting) erases collection order, so the loaded trees — and
//     therefore snapshot bytes — are identical to a serial build's.
//
// Attribute fields never contribute to ancestors, so the attribute pass
// shards by simple range chunking.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/xmltree"
)

const (
	// shardsPerWorker oversplits the frontier so the pool load-balances
	// skewed subtrees instead of waiting on one giant shard.
	shardsPerWorker = 4
	// minShardNodes floors the planned shard size; below this the
	// scheduling overhead outweighs the fold itself.
	minShardNodes = 256
)

// workers resolves Options.Parallelism: 0 (and any negative value) means
// GOMAXPROCS, 1 keeps the serial reference path.
func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// planShards picks the spine/frontier split: spine nodes (returned in
// pre order) are folded serially after the shards; every other node
// belongs to exactly one frontier subtree, and consecutive frontier
// subtrees are grouped into shards of roughly target size. The frontier
// is chosen by walking down from the root and splitting any element
// whose subtree exceeds the target, so a handful of huge subtrees
// cannot serialise the pass.
func planShards(doc *xmltree.Doc, workers int) (spine []xmltree.NodeID, shards [][]xmltree.NodeID) {
	n := doc.NumNodes()
	target := n / (workers * shardsPerWorker)
	if target < minShardNodes {
		target = minShardNodes
	}

	// Explicit descent stack (one frame per open spine node, holding the
	// next sibling to examine) rather than recursion: a degenerate chain
	// of nested elements puts nearly every node on the spine, and the
	// planner must survive the same depths the iterative serial pass and
	// parser do.
	var frontier []xmltree.NodeID
	spine = append(spine, doc.Root())
	stack := []xmltree.NodeID{doc.FirstChild(doc.Root())}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		if c == xmltree.InvalidNode {
			stack = stack[:len(stack)-1]
			continue
		}
		stack[len(stack)-1] = doc.NextSibling(c)
		if int(doc.Size(c))+1 > target && doc.FirstChild(c) != xmltree.InvalidNode {
			spine = append(spine, c)
			stack = append(stack, doc.FirstChild(c))
		} else {
			frontier = append(frontier, c)
		}
	}

	var cur []xmltree.NodeID
	cnt := 0
	for _, root := range frontier {
		cur = append(cur, root)
		cnt += int(doc.Size(root)) + 1
		if cnt >= target {
			shards = append(shards, cur)
			cur, cnt = nil, 0
		}
	}
	if len(cur) > 0 {
		shards = append(shards, cur)
	}
	return spine, shards
}

// attrChunk is one half-open attribute id range [lo, hi).
type attrChunk struct{ lo, hi xmltree.AttrID }

func attrChunks(na, workers int) []attrChunk {
	if na == 0 {
		return nil
	}
	size := na / (workers * shardsPerWorker)
	if size < minShardNodes {
		size = minShardNodes
	}
	chunks := make([]attrChunk, 0, na/size+1)
	for lo := 0; lo < na; lo += size {
		hi := lo + size
		if hi > na {
			hi = na
		}
		chunks = append(chunks, attrChunk{lo: xmltree.AttrID(lo), hi: xmltree.AttrID(hi)})
	}
	return chunks
}

// parallelFor runs f(0) … f(jobs-1) on up to workers goroutines,
// reusing the caller's goroutine as one of them, and returns when every
// job is done. Job order across workers is unspecified; callers index
// into output slices so results land deterministically.
func parallelFor(workers, jobs int, f func(i int)) {
	if jobs == 0 {
		return
	}
	if workers > jobs {
		workers = jobs
	}
	if workers <= 1 {
		for i := 0; i < jobs; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= jobs {
				return
			}
			f(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// buildParallel is the concurrent Figure 7: shard passes, merge, spine
// fold, parallel bulk loads (by Build). Results are bit-for-bit identical
// to the serial build (parallel_test.go pins this property per registered
// type, down to snapshot bytes).
func (s *Snapshot) buildParallel(workers int) {
	doc := s.doc
	spine, shards := planShards(doc, workers)

	// The node and attribute passes touch disjoint state, so both job
	// lists feed one pool — a straggler shard never leaves workers idle
	// while attribute chunks wait.
	chunks := attrChunks(doc.NumAttrs(), workers)
	passes := make([][]folder, len(shards)+len(chunks))
	parallelFor(workers, len(passes), func(i int) {
		folds := s.folders(true)
		if i < len(shards) {
			for _, root := range shards[i] {
				s.buildPass(root, root+xmltree.NodeID(doc.Size(root)), folds)
			}
		} else {
			c := chunks[i-len(shards)]
			s.buildAttrs(c.lo, c.hi-1, folds)
		}
		passes[i] = folds
	})

	// Merge what the passes held back. Each family's shared tables are
	// its own, so the merge parallelises across families.
	if len(passes) > 0 {
		parallelFor(workers, len(passes[0]), func(f int) {
			for _, folds := range passes {
				folds[f].flush()
			}
		})
	}

	// Fold the spine from its children's stored state, children before
	// parents (reverse pre order), through the Figure 8 refold — THE fold
	// definition — so the parallel build cannot diverge from the serial
	// pass or from post-update refolds.
	for i := len(spine) - 1; i >= 0; i-- {
		for _, f := range s.fams {
			f.refold(s, spine[i], nil, nil)
		}
	}
}
