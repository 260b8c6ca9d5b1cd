package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/xmlparse"
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
