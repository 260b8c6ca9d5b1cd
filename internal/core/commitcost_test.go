package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/xmlparse"
	"repro/internal/xmltree"
)

// TestTextCommitAllocIsSublinear is the count guard on the cost of a
// value commit: the bytes one four-value text commit allocates may grow
// with the touched chunks, tree paths and fan-out of the updated
// ancestors, but not with the document. At 16× the nodes a commit may
// allocate at most 4× as much; a draft that copies any per-node column
// whole allocates about 14× as much.
func TestTextCommitAllocIsSublinear(t *testing.T) {
	small, large := textCommitAllocBytes(t, 0.125), textCommitAllocBytes(t, 2)
	ratio := float64(large) / float64(small)
	t.Logf("bytes per 4-value text commit: %d at xmark1 scale 0.125, %d at scale 2 (%.1f×)", small, large, ratio)
	if ratio > 4 {
		t.Fatalf("a text commit at 16× the nodes allocates %.1f× the bytes (%d vs %d), want ≤ 4×", ratio, large, small)
	}
}

// textCommitAllocBytes is the median of the bytes allocated by one
// four-value text commit on xmark1 at scale, every index enabled.
func textCommitAllocBytes(t *testing.T, scale float64) uint64 {
	raw, err := datagen.Generate("xmark1", scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmlparse.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(doc, DefaultOptions())
	ix.EnableSubstring()
	texts := textNodesOf(doc)
	rng := rand.New(rand.NewSource(1))
	var allocs []uint64
	var before, after runtime.MemStats
	for range 15 {
		batch := make([]TextUpdate, 4)
		for i := range batch {
			batch[i] = TextUpdate{Node: texts[rng.Intn(len(texts))], Value: fmt.Sprintf("%d.%02d", rng.Intn(1000), rng.Intn(100))}
		}
		runtime.ReadMemStats(&before)
		if err := ix.UpdateTexts(batch); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		allocs = append(allocs, after.TotalAlloc-before.TotalAlloc)
	}
	slices.Sort(allocs)
	return allocs[len(allocs)/2]
}

// TestRefoldVisitsAreSublinear is the count guard on the Figure 8 refold:
// with block partials a text update reads at most B children plus ⌈k/B⌉
// partials per wide ancestor, so at 16× the nodes it may read at most 2×
// as many. A refold that walks every child of every ancestor reads about
// 16× as many. It counts the string hash family's reads; every stateful
// family refolds through the same foldPartials.
func TestRefoldVisitsAreSublinear(t *testing.T) {
	small, large := textRefoldVisits(t, 0.125), textRefoldVisits(t, 2)
	ratio := float64(large) / float64(small)
	t.Logf("children and partials read per 1-value text update: %d at xmark1 scale 0.125, %d at scale 2 (%.1f×)", small, large, ratio)
	if ratio > 2 {
		t.Fatalf("a text update at 16× the nodes reads %.1f× the children (%d vs %d), want ≤ 2×", ratio, large, small)
	}
}

// textRefoldVisits is the median of the children and partials the refold
// of one single-value text update reads on xmark1 at scale, every index
// enabled, in steady state: each measured update follows a committed
// warm-up update of the same leaf, which records the partials of its
// ancestors.
func textRefoldVisits(t *testing.T, scale float64) int {
	raw, err := datagen.Generate("xmark1", scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmlparse.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(doc, DefaultOptions())
	texts := textNodesOf(doc)
	rng := rand.New(rand.NewSource(1))
	var visits []int
	for range 15 {
		n := texts[rng.Intn(len(texts))]
		if err := ix.UpdateText(n, "warm-up"); err != nil {
			t.Fatal(err)
		}
		visits = append(visits, hashRefoldReads(ix.Snapshot(), n, fmt.Sprintf("%d.%02d", rng.Intn(1000), rng.Intn(100))))
	}
	slices.Sort(visits)
	return visits[len(visits)/2]
}

// hashRefoldReads sets text leaf n to v in a draft of s and refolds n's
// ancestors in the string hash family as a text commit does, returning
// the child states and partials the refold combines.
func hashRefoldReads(s *Snapshot, n xmltree.NodeID, v string) int {
	d := s.draft()
	if err := d.doc.SetText(n, v); err != nil {
		panic(err)
	}
	h := d.hashes()
	h.leaf(d, NodePosting(n), []byte(v))
	reads := 0
	m := countingMonoid[uint32]{h, &reads}
	dirty := []xmltree.NodeID{n}
	for a := d.doc.Parent(n); a != xmltree.InvalidNode; a = d.doc.Parent(a) {
		starts, blocksDirty := d.spanOf(a, dirty)
		h.col[0].Set(int(a), foldPartials(d, m, &h.parts, a, starts, blocksDirty))
	}
	return reads
}

// countingMonoid counts the states a fold combines.
type countingMonoid[S any] struct {
	monoid[S]
	combines *int
}

func (c countingMonoid[S]) combine(acc, x S) (S, bool) {
	*c.combines++
	return c.monoid.combine(acc, x)
}

// TestFig10BatchWorkGrows is Figure 10's shape as counted work: over the
// figure's batch sizes, a text batch through the real commit path
// refolds more ancestors, combines more child states and partials, and
// makes more string-index B+tree key operations the more leaves it
// updates. A commit that refolds or re-keys the whole document, whatever
// the batch, reads the same at every size and fails. The wall-clock form
// of the figure is experiments.TestRunFig10ShapesHold.
func TestFig10BatchWorkGrows(t *testing.T) {
	raw, err := datagen.Generate("xmark1", 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmlparse.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	base := Build(doc, Options{String: true}).Snapshot()
	texts := textNodesOf(doc)
	rng := rand.New(rand.NewSource(1))
	var prev batchWork
	// experiments.Fig10Batches, up to the document's text nodes.
	for i, batch := range []int{1, 10, 100, 1000, 10000, 100000} {
		if batch > len(texts) {
			break
		}
		var updates []TextUpdate
		for _, k := range rng.Perm(len(texts))[:batch] {
			updates = append(updates, TextUpdate{Node: texts[k], Value: fmt.Sprintf("%d.%02d", rng.Intn(1000), rng.Intn(100))})
		}
		w := textBatchWork(t, base, updates)
		t.Logf("batch %6d: %6d ancestors refolded, %7d states combined, %6d key operations", batch, w.refolds, w.combines, w.keyOps)
		if i > 0 && (w.refolds <= prev.refolds || w.combines <= prev.combines || w.keyOps <= prev.keyOps) {
			t.Fatalf("batch %d does no more work than the batch before it: %+v, then %+v", batch, prev, w)
		}
		prev = w
	}
}

// batchWork is what one text batch costs the string index.
type batchWork struct{ refolds, combines, keyOps int }

// textBatchWork commits updates to a draft of s through applyTexts, the
// commit path of UpdateTexts, with the hash family wrapped in a
// countingHash, and returns what the wrapper counted.
func textBatchWork(t *testing.T, s *Snapshot, updates []TextUpdate) batchWork {
	d := s.draft()
	h := d.fams[0].(*hashFamily)
	c := &countingHash{hashFamily: h, pt: postingTree{
		tree: h.tree,
		// A stats that never goes stale: its churn counts every key
		// inserted or deleted, and no rebuild resets it.
		stats: &keyStats{total: math.MaxInt / 8, bounds: []uint64{math.MaxUint64}, counts: []int{0}},
	}}
	d.fams[0] = c
	if err := d.validateTexts(updates); err != nil {
		t.Fatal(err)
	}
	if err := d.applyTexts(updates); err != nil {
		t.Fatal(err)
	}
	c.work.keyOps = c.pt.stats.churn
	return c.work
}

// countingHash is the hash family with its refolds counted and combined
// through countingMonoid, and its tree operations routed through a
// counting postingTree.
type countingHash struct {
	*hashFamily
	pt   postingTree
	work batchWork
}

func (c *countingHash) postings() *postingTree { return &c.pt }

func (c *countingHash) refold(s *Snapshot, n xmltree.NodeID, starts []int32, dirty []xmltree.NodeID) {
	c.work.refolds++
	m := countingMonoid[uint32]{c.hashFamily, &c.work.combines}
	c.col[0].Set(int(n), foldPartials(s, m, &c.parts, n, starts, dirty))
}
