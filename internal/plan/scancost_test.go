package plan

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/xpath"
)

// TestScanAllocFollowsHits is the count guard on the scan: the bytes a
// forced scan allocates may grow with its hits and the contexts it
// carries between steps, not with the document. The query has one step
// and a single hit at both scales, so at 8× the nodes the scan may
// allocate at most 4× as much; a scan that allocates a per-node mark
// array, 4 bytes per node, allocates about 8× as much.
func TestScanAllocFollowsHits(t *testing.T) {
	const query = `//person[contains(name/text(), "zq")]`
	small, large := scanAllocBytes(t, 0.25, query), scanAllocBytes(t, 2, query)
	ratio := float64(large) / float64(small)
	t.Logf("bytes per forced scan of %s: %d at xmark1 scale 0.25, %d at scale 2 (%.1f×)", query, small, large, ratio)
	if ratio > 4 {
		t.Fatalf("a forced scan at 8× the nodes allocates %.1f× the bytes (%d vs %d), want ≤ 4×", ratio, large, small)
	}
}

// scanAllocBytes is the median of the bytes allocated by planning and
// running the query as a forced scan on xmark1 at scale.
func scanAllocBytes(t *testing.T, scale float64, query string) uint64 {
	raw, err := datagen.Generate("xmark1", scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	ix := buildDialectDoc(t, string(raw), core.DefaultOptions(), false)
	path := xpath.MustParse(query)
	var allocs []uint64
	var before, after runtime.MemStats
	for range 15 {
		runtime.ReadMemStats(&before)
		if _, _, err := Run(ix, path, ForceScan); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		allocs = append(allocs, after.TotalAlloc-before.TotalAlloc)
	}
	slices.Sort(allocs)
	return allocs[len(allocs)/2]
}
