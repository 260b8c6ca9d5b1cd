package core

import (
	"iter"
	"math"
	"sort"

	"repro/internal/btree"
	"repro/internal/vhash"
)

// histBuckets bounds the number of equi-depth buckets per histogram.
// 64 buckets keep a histogram under ~1 KB while resolving range
// selectivities down to ~1.5 % of an index before interpolation.
const histBuckets = 64

// keyStats summarises one B+tree's key distribution for the query
// planner: the entry total, the distinct-key count, and a small
// equi-depth histogram over the key space. Bucket counts are maintained
// exactly through updates (every tree insert/delete adjusts the covering
// bucket); bucket bounds and the distinct count are frozen at (re)build
// time and refreshed once accumulated churn exceeds a quarter of the
// tree, so estimates degrade gracefully between rebuilds instead of
// drifting unboundedly. A keyStats is derived data: Build,
// EnableSubstring and Load build it from the sorted entries each tree
// bulk-loads from, a churn rebuild from a tree scan, and no snapshot
// stores it.
type keyStats struct {
	total    int
	distinct int
	min, max uint64   // smallest and largest key at rebuild time
	bounds   []uint64 // inclusive bucket upper bounds; last is MaxUint64
	counts   []int    // current entries per bucket
	churn    int      // inserts+deletes since the last rebuild
}

// buildKeyStats derives the statistics of total keys from one ascending
// pass over them. No keys yield a single empty catch-all bucket.
func buildKeyStats(total int, keys iter.Seq[uint64]) *keyStats {
	ks := &keyStats{bounds: []uint64{math.MaxUint64}, counts: []int{0}}
	if total == 0 {
		return ks
	}
	depth := (total + histBuckets - 1) / histBuckets
	ks.bounds = ks.bounds[:0]
	ks.counts = ks.counts[:0]
	first := true
	var prev uint64
	cum := 0
	for key := range keys {
		if first {
			ks.min, ks.distinct = key, 1
			first = false
		} else if key != prev {
			ks.distinct++
			// Buckets close only on key boundaries, so equal keys never
			// straddle two buckets and eq-lookups hit exactly one.
			if cum >= depth {
				ks.bounds = append(ks.bounds, prev)
				ks.counts = append(ks.counts, cum)
				cum = 0
			}
		}
		prev = key
		cum++
	}
	ks.max = prev
	ks.total = total
	ks.bounds = append(ks.bounds, math.MaxUint64)
	ks.counts = append(ks.counts, cum)
	return ks
}

// treeKeyStats derives t's statistics from a scan of the tree: the
// churn rebuild's input, where no sorted entries are at hand.
func treeKeyStats(t *btree.Tree) *keyStats {
	return buildKeyStats(t.Len(), func(yield func(uint64) bool) {
		t.Scan(func(key uint64, _ uint32) bool { return yield(key) })
	})
}

// bucketFor locates the bucket covering key — the first bound >= key.
// The last bound is MaxUint64, so the search always lands.
func (ks *keyStats) bucketFor(key uint64) int {
	return sort.Search(len(ks.bounds), func(i int) bool { return ks.bounds[i] >= key })
}

func (ks *keyStats) noteInsert(key uint64) {
	ks.counts[ks.bucketFor(key)]++
	ks.total++
	ks.churn++
	if key < ks.min {
		ks.min = key
	}
	if key > ks.max {
		ks.max = key
	}
}

func (ks *keyStats) noteDelete(key uint64) {
	if b := ks.bucketFor(key); ks.counts[b] > 0 {
		ks.counts[b]--
	}
	if ks.total > 0 {
		ks.total--
	}
	ks.churn++
}

// stale reports whether accumulated churn warrants a rebuild: a quarter
// of the tree, with a floor so small trees don't rebuild on every touch.
func (ks *keyStats) stale() bool {
	return ks.churn > 64 && ks.churn*4 > ks.total
}

// estimateEq estimates the postings under one key as the average cluster
// size (total over distinct) capped by the covering bucket's population.
func (ks *keyStats) estimateEq(key uint64) float64 {
	if ks.total == 0 || ks.distinct == 0 {
		return 0
	}
	if key < ks.min || key > ks.max {
		return 0
	}
	avg := float64(ks.total) / float64(ks.distinct)
	if bc := float64(ks.counts[ks.bucketFor(key)]); bc < avg {
		return bc
	}
	return avg
}

// estimateRange estimates the postings with lo <= key <= hi: full
// buckets inside the range count whole, boundary buckets contribute by
// linear interpolation over their key span (the classic equi-depth
// uniform-within-bucket assumption).
func (ks *keyStats) estimateRange(lo, hi uint64) float64 {
	if ks.total == 0 || lo > hi || hi < ks.min || lo > ks.max {
		return 0
	}
	if lo < ks.min {
		lo = ks.min
	}
	if hi > ks.max {
		hi = ks.max
	}
	est := 0.0
	for b := ks.bucketFor(lo); b < len(ks.bounds); b++ {
		bLo := ks.min
		if b > 0 {
			bLo = ks.bounds[b-1] + 1
		}
		bHi := ks.bounds[b]
		if bHi > ks.max {
			bHi = ks.max
		}
		if bLo > hi {
			break
		}
		oLo, oHi := bLo, bHi
		if lo > oLo {
			oLo = lo
		}
		if hi < oHi {
			oHi = hi
		}
		if oHi < oLo {
			continue
		}
		width := float64(bHi-bLo) + 1
		overlap := float64(oHi-oLo) + 1
		est += float64(ks.counts[b]) * (overlap / width)
	}
	if est > float64(ks.total) {
		est = float64(ks.total)
	}
	return est
}

// --- planner-facing estimates ---

// PlannerStats is the statistics layer's summary of one index, as
// exposed to EXPLAIN output and tests.
type PlannerStats struct {
	Total    int // entries in the B+tree
	Distinct int // distinct keys at the last histogram rebuild
	Buckets  int // equi-depth buckets
}

// StringPlannerStats reports the string equi-index statistics; ok is
// false when the index was not built.
func (ix *Snapshot) StringPlannerStats() (PlannerStats, bool) {
	if h := ix.hashes(); h != nil {
		return h.stats.summary()
	}
	return PlannerStats{}, false
}

// TypedPlannerStats reports typed index id's statistics; ok is false
// when the index was not built.
func (ix *Snapshot) TypedPlannerStats(id TypeID) (PlannerStats, bool) {
	if t := ix.typedFor(id); t != nil {
		return t.stats.summary()
	}
	return PlannerStats{}, false
}

func (ks *keyStats) summary() (PlannerStats, bool) {
	if ks == nil {
		return PlannerStats{}, false
	}
	return PlannerStats{Total: ks.total, Distinct: ks.distinct, Buckets: len(ks.counts)}, true
}

// EstimateStringEq estimates how many postings carry H(value) — the
// cardinality the planner assigns a hash-equality access path. The
// estimate is the average hash-cluster size capped by the covering
// bucket, so it answers in O(log buckets) regardless of tree size.
func (ix *Snapshot) EstimateStringEq(value string) float64 {
	h := ix.hashes()
	if h == nil || h.stats == nil {
		return 0
	}
	return h.stats.estimateEq(uint64(vhash.HashString(value)))
}

// EstimateTypedRange estimates how many postings fall in [lo, hi] under
// typed index id (bounds exclusive when incLo/incHi are false) — the
// cardinality the planner assigns a B+tree range access path.
func (ix *Snapshot) EstimateTypedRange(id TypeID, lo, hi uint64, incLo, incHi bool) float64 {
	t := ix.typedFor(id)
	lo, hi, ok := closedRange(lo, hi, incLo, incHi)
	if t == nil || t.stats == nil || !ok {
		return 0
	}
	if lo == hi {
		return t.stats.estimateEq(lo)
	}
	return t.stats.estimateRange(lo, hi)
}
