package core

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/btree"
	"repro/internal/xmltree"
)

// TestKeyStatsBuild pins the equi-depth construction: population equals
// the tree, distinct keys counted exactly, equal keys never straddle a
// bucket boundary. Statistics from the sorted entries a tree bulk-loads
// from equal those from a scan of the tree, the churn rebuild's input.
func TestKeyStatsBuild(t *testing.T) {
	// dup-heavy runs 7 postings per key over more keys than the
	// histogram has buckets; all-equal puts 3 buckets' depth on one key.
	var allEqual, dupHeavy []btree.Entry
	for i := range 40 * histBuckets {
		dupHeavy = append(dupHeavy, btree.Entry{Key: uint64(i / 7), Val: uint32(i)})
	}
	for i := range 3 * histBuckets {
		allEqual = append(allEqual, btree.Entry{Key: 9, Val: uint32(i)})
	}
	for name, entries := range map[string][]btree.Entry{
		"empty":     nil,
		"one entry": {{Key: 5, Val: 1}},
		"all equal": allEqual,
		"dup-heavy": dupHeavy,
	} {
		var pt postingTree
		pt.bulkLoad(entries)
		if want := treeKeyStats(pt.tree); !reflect.DeepEqual(pt.stats, want) {
			t.Fatalf("%s: statistics from entries %+v, from a tree scan %+v", name, pt.stats, want)
		}
		if name == "dup-heavy" && len(pt.stats.counts) <= histBuckets/2 {
			t.Fatalf("dup-heavy: %d buckets, want the histogram filled", len(pt.stats.counts))
		}
	}

	tr := btree.New()
	// 50 distinct keys, key k carrying k%5+1 postings.
	want := 0
	for k := uint64(100); k < 150; k++ {
		for v := uint32(0); v < uint32(k%5)+1; v++ {
			tr.Insert(k, v)
			want++
		}
	}
	ks := treeKeyStats(tr)
	if err := (&postingTree{tree: tr, stats: ks}).checkStats(); err != nil || ks.total != want {
		t.Fatalf("total %d, want %d: %v", ks.total, want, err)
	}
	if ks.distinct != 50 {
		t.Fatalf("distinct = %d, want 50", ks.distinct)
	}
	if ks.min != 100 || ks.max != 149 {
		t.Fatalf("min/max = %d/%d, want 100/149", ks.min, ks.max)
	}
	if ks.bounds[len(ks.bounds)-1] != math.MaxUint64 {
		t.Fatal("missing catch-all bucket")
	}
	// Eq-estimate: avg cluster size = total/50 = 3; every key estimate
	// must be within the bucket population.
	if est := ks.estimateEq(120); est <= 0 || est > float64(ks.total) {
		t.Fatalf("estimateEq(120) = %g", est)
	}
	if est := ks.estimateEq(99); est != 0 {
		t.Fatalf("estimateEq below min = %g, want 0", est)
	}
	// Range estimate over everything returns the total.
	if est := ks.estimateRange(0, math.MaxUint64); math.Abs(est-float64(want)) > 0.5 {
		t.Fatalf("full-range estimate %g, want %d", est, want)
	}
}

// TestKeyStatsRangeAccuracy checks interpolation quality on uniform
// keys: a q-fraction range must estimate within 2x of truth.
func TestKeyStatsRangeAccuracy(t *testing.T) {
	tr := btree.New()
	for k := uint64(0); k < 10000; k++ {
		tr.Insert(k, uint32(k))
	}
	ks := treeKeyStats(tr)
	for _, span := range []struct{ lo, hi uint64 }{{0, 99}, {5000, 5999}, {9000, 9999}, {2500, 7499}} {
		truth := float64(span.hi - span.lo + 1)
		est := ks.estimateRange(span.lo, span.hi)
		if est < truth/2 || est > truth*2 {
			t.Errorf("range [%d,%d]: est %g, truth %g", span.lo, span.hi, est, truth)
		}
	}
}

// TestKeyStatsMaintenance pins the update path: inserts/deletes keep
// bucket populations exact, and enough churn triggers a rebuild that
// refreshes distinct counts.
func TestKeyStatsMaintenance(t *testing.T) {
	doc := mustParseForTest(t, makeNumDoc(400))
	ix := Build(doc, Options{Types: []TypeID{TypeDouble}})
	ti := ix.Snapshot().typedFor(TypeDouble)
	if ti.stats == nil {
		t.Fatal("no stats after Build")
	}
	if err := ti.checkStats(); err != nil {
		t.Fatal(err)
	}
	// Rewrite half the text nodes to new values; population must track.
	var updates []TextUpdate
	for i := 0; i < doc.NumNodes() && len(updates) < 200; i++ {
		if doc.Kind(int32AsNodeID(i)) == xmltree.Text {
			updates = append(updates, TextUpdate{Node: int32AsNodeID(i), Value: fmt.Sprintf("%d", 100000+i)})
		}
	}
	if err := ix.UpdateTexts(updates); err != nil {
		t.Fatal(err)
	}
	// The commit published a new version; re-fetch its typed index (the
	// old ti still describes the pre-update snapshot, by design).
	ti = ix.Snapshot().typedFor(TypeDouble)
	if err := ti.checkStats(); err != nil {
		t.Fatalf("after updates: %v", err)
	}
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
	// The churn above (200 updates on ~400 entries) crosses the rebuild
	// threshold, so bounds are fresh: distinct should reflect the new
	// values.
	if ti.stats.churn != 0 {
		t.Fatalf("churn = %d after threshold crossing, want rebuilt (0)", ti.stats.churn)
	}
}

// TestStatsPersistRoundTrip pins snapshot round-tripping: planner stats
// load back identical (same estimates), and a loaded index keeps
// maintaining them through updates.
func TestStatsPersistRoundTrip(t *testing.T) {
	doc := mustParseForTest(t, makeNumDoc(300))
	ix := Build(doc, DefaultOptions())
	path := filepath.Join(t.TempDir(), "stats.xvi")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []TypeID{TypeDouble, TypeDate} {
		want, ok1 := ix.Snapshot().TypedPlannerStats(id)
		got, ok2 := loaded.Snapshot().TypedPlannerStats(id)
		if ok1 != ok2 || want != got {
			t.Errorf("type %d: loaded stats %+v (ok=%v), want %+v (ok=%v)", id, got, ok2, want, ok1)
		}
	}
	ws, ok1 := ix.Snapshot().StringPlannerStats()
	gs, ok2 := loaded.Snapshot().StringPlannerStats()
	if ok1 != ok2 || ws != gs {
		t.Errorf("string stats %+v/%v, want %+v/%v", gs, ok2, ws, ok1)
	}
	// Estimates answer identically on the loaded index.
	if a, b := ix.Snapshot().EstimateTypedRange(TypeDouble, 0, math.MaxUint64, true, true),
		loaded.Snapshot().EstimateTypedRange(TypeDouble, 0, math.MaxUint64, true, true); a != b {
		t.Errorf("full-range estimate %g loaded vs %g built", b, a)
	}
	if err := loaded.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestStringEqIterMatchesLookup pins the streaming string path against
// the index-less scan.
func TestStringEqIterMatchesLookup(t *testing.T) {
	doc := mustParseForTest(t, `<r><a>x</a><b>x</b><c>y</c><d at="x"/><e>x<f/></e></r>`)
	snap := Build(doc, Options{String: true}).Snapshot()
	it := snap.StringEqIter("x")
	got := it.drain()
	it.Close()
	assertSamePostings(t, "string eq x", got, snap.ScanStringEquals("x"))
}

// TestTypedRangeIterMatchesRange pins the streaming typed path —
// including wrapper chain-lifting — against the index-less scan.
func TestTypedRangeIterMatchesRange(t *testing.T) {
	doc := mustParseForTest(t, makeNumDoc(120))
	ix := Build(doc, Options{Types: []TypeID{TypeDouble}})
	lo, hi := btree.EncodeFloat64(10), btree.EncodeFloat64(60)
	it := ix.Snapshot().TypedRangeIter(TypeDouble, lo, hi, true, true)
	got := it.drain()
	it.Close()
	assertSamePostings(t, "double [10, 60]", got, ScanTypedRange(doc, TypeDouble, lo, hi))
	// Exclusive-bound and empty iterators behave.
	it = ix.Snapshot().TypedRangeIter(TypeDouble, lo, lo, false, false)
	if _, ok := it.Next(); ok {
		t.Fatal("empty exclusive range yielded a posting")
	}
	it.Close()
	it = ix.Snapshot().TypedRangeIter(TypeDateTime, 0, math.MaxUint64, true, true) // not built
	if _, ok := it.Next(); ok {
		t.Fatal("unbuilt index yielded a posting")
	}
	it.Close()
}

// makeNumDoc builds a flat document of n numeric leaves (wrapped, so
// chain-lifting applies) interleaved with non-numeric ones.
func makeNumDoc(n int) string {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < n; i++ {
		if i%7 == 0 {
			fmt.Fprintf(&b, "<s>text%d</s>", i)
			continue
		}
		fmt.Fprintf(&b, "<v>%d</v>", i%100)
	}
	b.WriteString("</r>")
	return b.String()
}

// TestStatsSnapshotDeterministic guards the parallel-equivalence
// contract: stats derive deterministically from the trees, so serial
// and parallel builds still produce byte-identical snapshots.
func TestStatsSnapshotDeterministic(t *testing.T) {
	doc := mustParseForTest(t, makeNumDoc(500))
	p1 := Build(doc, Options{String: true, Types: []TypeID{TypeDouble, TypeDate}, Parallelism: 1})
	p4 := Build(doc, Options{String: true, Types: []TypeID{TypeDouble, TypeDate}, Parallelism: 4})
	d := t.TempDir()
	f1, f4 := filepath.Join(d, "p1.xvi"), filepath.Join(d, "p4.xvi")
	if err := p1.Save(f1); err != nil {
		t.Fatal(err)
	}
	if err := p4.Save(f4); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(f1)
	if err != nil {
		t.Fatal(err)
	}
	b4, err := os.ReadFile(f4)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b4) {
		t.Fatal("serial and parallel snapshots differ with stats section")
	}
}
