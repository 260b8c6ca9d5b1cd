package xmlvi_test

// Layer micro-benchmarks that no other tool takes: planned-query
// latency, index build, the date-range and substring indexes against
// their scans, and lock-free reads under a writer. The paper's
// evaluation (Table 1, Figures 9-11, ablations A1-A6 and A8) is
// `xvibench -exp`; the served traffic is bench/.
//
// The corpus scale defaults small; raise it with -benchscale.

import (
	"flag"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	xmlvi "repro"
	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/xmlparse"
	"repro/internal/xmltree"
)

var benchScale = flag.Float64("benchscale", 0.10, "xmark1 dataset scale for the benchmarks (1.0 ≈ 1/64 of paper size)")

// BenchmarkQuerySinglePredicate tracks raw planned-query latency on the
// two single-predicate shapes (string equality, numeric range).
func BenchmarkQuerySinglePredicate(b *testing.B) {
	xml, err := datagen.Generate("xmark1", *benchScale, 42)
	if err != nil {
		b.Fatal(err)
	}
	doc, err := xmlvi.ParseWithOptions(xml, xmlvi.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range []struct{ name, expr string }{
		{"eq", `//item[location = "Amsterdam"]`},
		{"range", `//open_auction[initial > 4950]`},
	} {
		b.Run(q.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := doc.Query(q.expr)
				if err != nil {
					b.Fatal(err)
				}
				benchResults = res
			}
		})
	}
}

var benchResults []xmlvi.Result

// BenchmarkBuild measures full index construction (string + every
// registered typed index) over the XMark bench corpus, serial
// (Parallelism=1, the paper's Figure 7 loop) against the sharded
// parallel build (Parallelism=4). On multi-core hardware p4 should be
// well over 2x faster, while on a single core it degrades to roughly
// serial cost. The equivalence property tests in internal/core
// pin that both paths produce byte-identical indexes.
func BenchmarkBuild(b *testing.B) {
	xml, err := datagen.Generate("xmark1", *benchScale, 42)
	if err != nil {
		b.Fatal(err)
	}
	doc, err := xmlparse.Parse(xml)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("corpus: %d nodes, %d attrs", doc.NumNodes(), doc.NumAttrs())
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Parallelism = p
			for i := 0; i < b.N; i++ {
				benchBuilt = core.Build(doc, opts)
			}
		})
	}
}

var benchBuilt *core.Indexes

// BenchmarkRangeDate compares the xs:date range index — added to the
// core purely by registration — against the index-less scan baseline on
// the datagen auction (XMark) dataset. Paper-shaped expectation: the
// B+tree range scan beats value materialisation + FSM casting by well
// over an order of magnitude. The "speedup_x" metric on the indexed
// sub-benchmark reports the measured ratio.
func BenchmarkRangeDate(b *testing.B) {
	snap := buildAuctionDateIndex(b).Snapshot()
	lo, hi := dateBenchWindow()
	if len(snap.RangeTyped(core.TypeDate, lo, hi, true, true)) == 0 {
		b.Fatal("no dates in the benchmark window")
	}
	var scanNS float64
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchHits = core.ScanTypedRange(snap.Doc(), core.TypeDate, lo, hi)
		}
		scanNS = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchHits = snap.RangeTyped(core.TypeDate, lo, hi, true, true)
		}
		indexedNS := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		if indexedNS > 0 && scanNS > 0 {
			b.ReportMetric(scanNS/indexedNS, "speedup_x")
		}
	})
}

var benchHits []core.Posting

// TestRangeDateIndexedMatchesScan pins the benchmark's correctness: the
// indexed date range (with chain-lifted wrappers) selects exactly the
// nodes the scan baseline casts into the window.
func TestRangeDateIndexedMatchesScan(t *testing.T) {
	snap := buildAuctionDateIndex(t).Snapshot()
	lo, hi := dateBenchWindow()
	indexed := snap.RangeTyped(core.TypeDate, lo, hi, true, true)
	scanned := core.ScanTypedRange(snap.Doc(), core.TypeDate, lo, hi)
	if len(indexed) == 0 {
		t.Fatal("no dates in the window")
	}
	key := func(p core.Posting) string {
		if p.IsAttr {
			return fmt.Sprintf("a%d", p.Attr)
		}
		return fmt.Sprintf("n%d", p.Node)
	}
	set := func(ps []core.Posting) map[string]bool {
		m := make(map[string]bool, len(ps))
		for _, p := range ps {
			m[key(p)] = true
		}
		return m
	}
	si, ss := set(indexed), set(scanned)
	if len(si) != len(ss) {
		t.Fatalf("indexed %d distinct hits, scan %d", len(si), len(ss))
	}
	for k := range si {
		if !ss[k] {
			t.Fatalf("indexed hit %s missing from scan", k)
		}
	}
}

// BenchmarkSubstring compares the q-gram substring index — versioned
// inside the MVCC snapshot, maintained by every commit path — against
// the full-document scan baseline on the datagen auction (XMark)
// dataset, using a selective contains() pattern with verified hits. The
// "speedup_x" metric on the indexed sub-benchmark reports the measured
// ratio.
func BenchmarkSubstring(b *testing.B) {
	ix := buildSubstringIndex(b).Snapshot()
	const pattern = "bidder" // selective: a handful of hits at any bench scale
	// Warm both paths: a single cold lookup is dominated by first-touch
	// allocation.
	if len(ix.Contains(pattern)) == 0 || len(ix.ScanContains(pattern)) == 0 {
		b.Fatal("no hits for the benchmark pattern")
	}
	// reps amortizes per-call jitter inside each iteration; both arms use
	// the same factor, so speedup_x is unaffected by it.
	const reps = 25
	var scanNS float64
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < reps; j++ {
				benchHits = ix.ScanContains(pattern)
			}
		}
		scanNS = float64(b.Elapsed().Nanoseconds()) / float64(b.N*reps)
	})
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < reps; j++ {
				benchHits = ix.Contains(pattern)
			}
		}
		indexedNS := float64(b.Elapsed().Nanoseconds()) / float64(b.N*reps)
		if indexedNS > 0 && scanNS > 0 {
			b.ReportMetric(scanNS/indexedNS, "speedup_x")
		}
	})
}

// TestSubstringIndexedMatchesScan pins the benchmark's correctness: the
// q-gram index answers contains() and starts-with() with exactly the
// postings the scan baseline finds, in the same document order.
func TestSubstringIndexedMatchesScan(t *testing.T) {
	ix := buildSubstringIndex(t).Snapshot()
	check := func(what string, indexed, scanned []core.Posting) {
		t.Helper()
		if len(indexed) != len(scanned) {
			t.Fatalf("%s: indexed %d hits, scan %d", what, len(indexed), len(scanned))
		}
		for i := range indexed {
			if indexed[i] != scanned[i] {
				t.Fatalf("%s: hit %d: indexed %+v, scan %+v", what, i, indexed[i], scanned[i])
			}
		}
	}
	for _, pattern := range []string{"mailto:w", "bidder", ".example"} {
		check("contains "+pattern, ix.Contains(pattern), ix.ScanContains(pattern))
	}
	prefix := ix.StartsWith("mailto:")
	if len(prefix) == 0 {
		t.Fatal("no starts-with hits")
	}
	check("starts-with mailto:", prefix, ix.ScanStartsWith("mailto:"))
}

// buildSubstringIndex shreds the bench corpus and enables the q-gram
// substring index on it.
func buildSubstringIndex(tb testing.TB) *core.Indexes {
	tb.Helper()
	xml, err := datagen.Generate("xmark1", *benchScale, 42)
	if err != nil {
		tb.Fatal(err)
	}
	doc, err := xmlparse.Parse(xml)
	if err != nil {
		tb.Fatal(err)
	}
	ix := core.Build(doc, core.DefaultOptions())
	ix.EnableSubstring()
	return ix
}

// buildAuctionDateIndex shreds the datagen auction dataset with the
// date index enabled (registry path only, no double/dateTime).
func buildAuctionDateIndex(tb testing.TB) *core.Indexes {
	tb.Helper()
	xml, err := datagen.Generate("xmark1", *benchScale, 42)
	if err != nil {
		tb.Fatal(err)
	}
	doc, err := xmlparse.Parse(xml)
	if err != nil {
		tb.Fatal(err)
	}
	return core.Build(doc, core.Options{Types: []core.TypeID{core.TypeDate}})
}

// dateBenchWindow covers two generator years — a selective but non-empty
// slice of the auction site's date fields — as encoded xs:date keys.
func dateBenchWindow() (lo, hi uint64) {
	day := int64(24 * 3600)
	return btree.EncodeInt64(time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC).Unix() / day),
		btree.EncodeInt64(time.Date(2001, 12, 31, 0, 0, 0, 0, time.UTC).Unix() / day)
}

// concurrentBenchDoc builds a flat document with one constant "needle"
// text node (the readers' point-lookup target) plus n storm nodes, all
// "g0", returned as the writer's update targets.
func concurrentBenchDoc(tb testing.TB, n int) (*core.Indexes, []xmltree.NodeID) {
	tb.Helper()
	var sb strings.Builder
	sb.WriteString("<r><k>needle</k>")
	for i := 0; i < n; i++ {
		sb.WriteString("<v>g0</v>")
	}
	sb.WriteString("</r>")
	doc, err := xmlparse.Parse([]byte(sb.String()))
	if err != nil {
		tb.Fatal(err)
	}
	ix := core.Build(doc, core.DefaultOptions())
	var texts []xmltree.NodeID
	d := ix.Doc()
	for i := 0; i < d.NumNodes(); i++ {
		nd := xmltree.NodeID(i)
		if d.Kind(nd) == xmltree.Text && d.Value(nd) != "needle" {
			texts = append(texts, nd)
		}
	}
	return ix, texts
}

// runConcurrentWindow storms whole-document text batches from one writer
// while 8 reader goroutines pin snapshots and run selective string
// lookups, for one wall-clock window. When lock is non-nil every read holds RLock and
// every commit holds Lock — reproducing the pre-MVCC global-RWMutex
// contract on top of the identical index — so the two arms differ only
// in synchronization. Returns total reads and commits completed.
func runConcurrentWindow(b *testing.B, ix *core.Indexes, nodes []xmltree.NodeID, window time.Duration, lock *sync.RWMutex) (int64, int64) {
	b.Helper()
	var stop atomic.Bool
	var reads atomic.Int64
	var wg sync.WaitGroup
	const readers = 8
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := int64(0)
			for !stop.Load() {
				if lock != nil {
					lock.RLock()
				}
				s := ix.Snapshot()
				if len(s.LookupString("needle")) == 0 {
					panic("lookup missed its own snapshot")
				}
				if lock != nil {
					lock.RUnlock()
				}
				n++
			}
			reads.Add(n)
		}()
	}
	commits := int64(0)
	batch := make([]core.TextUpdate, len(nodes))
	deadline := time.Now().Add(window)
	for time.Now().Before(deadline) {
		commits++
		v := fmt.Sprintf("g%d", commits)
		for i, nd := range nodes {
			batch[i] = core.TextUpdate{Node: nd, Value: v}
		}
		if lock != nil {
			lock.Lock()
		}
		err := ix.UpdateTexts(batch)
		if lock != nil {
			lock.Unlock()
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	return reads.Load(), commits
}

// BenchmarkConcurrentQPS is the MVCC headline number: 8 readers doing
// string lookups while one writer storms whole-document update batches.
// The snapshot arm reads lock-free off published versions; the rwmutex
// arm wraps the identical operations in an external sync.RWMutex (the
// pre-MVCC contract), so every commit's clone+rebuild stalls all eight
// readers. Reported metrics: reads/s per arm and the speedup ratio
// (acceptance floor: 5x).
func BenchmarkConcurrentQPS(b *testing.B) {
	const window = 300 * time.Millisecond
	for i := 0; i < b.N; i++ {
		snapIx, snapNodes := concurrentBenchDoc(b, 3000)
		snapReads, snapCommits := runConcurrentWindow(b, snapIx, snapNodes, window, nil)

		lockIx, lockNodes := concurrentBenchDoc(b, 3000)
		var mu sync.RWMutex
		lockReads, lockCommits := runConcurrentWindow(b, lockIx, lockNodes, window, &mu)

		if i == 0 {
			secs := window.Seconds()
			b.ReportMetric(float64(snapReads)/secs, "snapshot_qps")
			b.ReportMetric(float64(lockReads)/secs, "rwmutex_qps")
			if lockReads > 0 {
				b.ReportMetric(float64(snapReads)/float64(lockReads), "speedup_x")
			}
			b.ReportMetric(float64(snapCommits)/secs, "snapshot_commits_s")
			b.ReportMetric(float64(lockCommits)/secs, "rwmutex_commits_s")
		}
	}
}
