package core

import (
	"fmt"
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
