package experiments

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/txn"
	"repro/internal/xpath"
)

// tinyConfig keeps experiment tests fast.
func tinyConfig() Config {
	return Config{Scale: 0.02, Seed: 7, Repeat: 1, Datasets: []string{"xmark1", "wiki"}}
}

func TestRunTable1ShapesHold(t *testing.T) {
	rows, err := RunTable1(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.TotalNodes <= 0 || r.TextNodes <= 0 {
			t.Errorf("%s: empty row %+v", r.Dataset, r)
		}
		if r.TextPct < 40 || r.TextPct > 80 {
			t.Errorf("%s: implausible text share %.1f%%", r.Dataset, r.TextPct)
		}
	}
	// XMark-like is double-rich, wiki-like is not.
	if rows[0].DoublePct <= rows[1].DoublePct {
		t.Errorf("xmark double %.2f%% should exceed wiki %.2f%%", rows[0].DoublePct, rows[1].DoublePct)
	}
	var buf bytes.Buffer
	ReportTable1(&buf, rows)
	if !strings.Contains(buf.String(), "Table 1") {
		t.Error("report missing title")
	}
}

func TestRunFig9ShapesHold(t *testing.T) {
	rows, err := RunFig9(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.ShredMS <= 0 || r.StringIdxMS <= 0 || r.DoubleIdxMS <= 0 {
			t.Errorf("%s: non-positive timings %+v", r.Dataset, r)
		}
		if r.DBBytes <= 0 || r.StringIdxBytes <= 0 {
			t.Errorf("%s: missing storage sizes %+v", r.Dataset, r)
		}
		// The paper's headline shapes: double index much smaller than the
		// string index, both smaller than the database.
		if r.DoubleIdxBytes >= r.StringIdxBytes {
			t.Errorf("%s: double index (%d) should be smaller than string index (%d)",
				r.Dataset, r.DoubleIdxBytes, r.StringIdxBytes)
		}
		if r.StringIdxBytes >= r.DBBytes {
			t.Errorf("%s: string index (%d) should be smaller than DB (%d)",
				r.Dataset, r.StringIdxBytes, r.DBBytes)
		}
		// Double-index creation is cheaper than string-index creation in
		// relative terms in the paper; allow slack at tiny scales but the
		// storage ratio must hold strongly.
		if r.DoubleSizePct > 25 {
			t.Errorf("%s: double index share %.1f%% implausibly large", r.Dataset, r.DoubleSizePct)
		}
	}
	var buf bytes.Buffer
	ReportFig9(&buf, rows)
	if !strings.Contains(buf.String(), "Figure 9") {
		t.Error("report missing title")
	}
}

// TestRunFig10ShapesHold checks Figure 10's shape in wall-clock time.
// One timing of a one-node batch is a fraction of a millisecond, so a
// single scheduling stall can make it look dearer than a thousand-node
// batch; each point is therefore the median of fig10Rounds runs.
// internal/core's TestFig10BatchWorkGrows checks the same shape in
// counted work, which no stall can move.
func TestRunFig10ShapesHold(t *testing.T) {
	cfg := tinyConfig()
	cfg.Datasets = []string{"xmark1"}
	var rounds [][]Fig10Point
	for range fig10Rounds {
		points, err := RunFig10(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rounds = append(rounds, points)
	}
	points := rounds[0]
	if len(points) < 3 {
		t.Fatalf("points = %d", len(points))
	}
	for i := range points {
		var str []float64
		for _, r := range rounds {
			str = append(str, r[i].StringMS)
		}
		slices.Sort(str)
		points[i].StringMS = str[len(str)/2]
	}
	// Cost grows with batch size (allowing jitter at the small end).
	first, last := points[0], points[len(points)-1]
	if last.Updated <= first.Updated {
		t.Fatal("batches not increasing")
	}
	if last.StringMS < first.StringMS/2 {
		t.Errorf("string update cost should grow: %.3f -> %.3f (medians of %d rounds)", first.StringMS, last.StringMS, fig10Rounds)
	}
	var buf bytes.Buffer
	ReportFig10(&buf, points)
	if !strings.Contains(buf.String(), "Figure 10") {
		t.Error("report missing title")
	}
}

// fig10Rounds is how many Figure 10 runs each point's median is taken over.
const fig10Rounds = 5

func TestRunFig11ShapesHold(t *testing.T) {
	rows, sums, err := RunFig11(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 {
		t.Fatalf("sums = %d", len(sums))
	}
	for _, s := range sums {
		if s.DistinctStrings == 0 || s.DistinctHashes == 0 {
			t.Errorf("%s: empty summary", s.Dataset)
		}
		if s.CollidingPct > 15 {
			t.Errorf("%s: colliding %.1f%% out of the paper's band", s.Dataset, s.CollidingPct)
		}
	}
	// Wiki-like must show the engineered collision clusters.
	var wiki Fig11Summary
	for _, s := range sums {
		if s.Dataset == "wiki" {
			wiki = s
		}
	}
	if wiki.MaxCluster < 3 {
		t.Errorf("wiki max cluster = %d, want >= 3", wiki.MaxCluster)
	}
	var buf bytes.Buffer
	ReportFig11(&buf, rows, sums)
	if !strings.Contains(buf.String(), "Figure 11") {
		t.Error("report missing title")
	}
}

func TestRunA1CombineBeatsRehash(t *testing.T) {
	cfg := tinyConfig()
	row, err := RunA1(cfg, "xmark1", 50)
	if err != nil {
		t.Fatal(err)
	}
	if row.CombineMS <= 0 || row.RehashMS <= 0 {
		t.Fatalf("timings: %+v", row)
	}
	var buf bytes.Buffer
	ReportA1(&buf, []A1Row{row})
	if !strings.Contains(buf.String(), "A1") {
		t.Error("report missing title")
	}
}

func TestRunA2SCTBeatsFSM(t *testing.T) {
	row := RunA2(tinyConfig())
	if row.SCTNS <= 0 || row.FSMNS <= 0 {
		t.Fatalf("timings: %+v", row)
	}
	// The paper's claim: probing an array is cheaper than running the
	// FSM over text.
	if row.SpeedupX < 1 {
		t.Errorf("SCT (%.1fns) should beat FSM re-run (%.1fns)", row.SCTNS, row.FSMNS)
	}
	var buf bytes.Buffer
	ReportA2(&buf, row)
}

func TestRunA3IndexedMatchesAndWins(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scale = 0.05
	rows, err := RunA3(cfg, "xmark1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no queries ran")
	}
	var buf bytes.Buffer
	ReportA3(&buf, rows)
}

func TestRunA4OnePassWins(t *testing.T) {
	row, err := RunA4(tinyConfig(), "xmark1")
	if err != nil {
		t.Fatal(err)
	}
	if row.OnePassMS <= 0 || row.ThreePassMS <= 0 {
		t.Fatalf("timings: %+v", row)
	}
	var buf bytes.Buffer
	ReportA4(&buf, []A4Row{row})
}

func TestRunA5CommutativeWins(t *testing.T) {
	row, err := RunA5(tinyConfig(), 4, 20)
	if err != nil {
		t.Fatal(err)
	}
	if row.CommutativeMS <= 0 || row.LockingMS <= 0 {
		t.Fatalf("timings: %+v", row)
	}
	// Disjoint-leaf workload: the commutative protocol must not abort.
	if row.CommutativeAbort != 0 {
		t.Errorf("commutative aborts = %d, want 0", row.CommutativeAbort)
	}
	var buf bytes.Buffer
	ReportA5(&buf, row)
}

// TestRunA6CrossoverShapesHold pins the planner crossover ablation's
// deterministic properties: every strategy agrees on the hits (checked
// inside RunA6), hits grow with selectivity, and the cost-based planner
// picks the index on the selective side and the scan on the other.
// Wall-clock orderings are logged, not asserted — timing assertions on
// shared CI runners are the flake class the A5 rework already removed
// once.
func TestRunA6CrossoverShapesHold(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scale = 0.1
	cfg.Repeat = 2
	rows, err := RunA6(cfg, "xmark1", []float64{0.01, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	low, high := rows[0], rows[1]
	if !low.AutoIndex {
		t.Error("low selectivity: planner did not choose the index")
	}
	if high.AutoIndex {
		t.Error("high selectivity: planner did not choose the scan")
	}
	if low.Hits > high.Hits {
		t.Errorf("hits decreased with selectivity: %d at 0.01 vs %d at 0.9", low.Hits, high.Hits)
	}
	t.Logf("low sel: scan %.3fms, index %.3fms, auto %.3fms", low.ScanMS, low.IndexMS, low.AutoMS)
	var buf bytes.Buffer
	ReportA6(&buf, rows)
	if !strings.Contains(buf.String(), "A6") {
		t.Error("report missing title")
	}
}

// TestRunA7PlannerShapesHold pins the planner's behaviour on the
// conjunctive XMark workload the A7 ablation measured: predicate order
// lists the unselective condition first, yet the planner drives an
// index rather than scanning, and agrees with the forced scan on the
// hits. With the first-condition heuristic gone there is nothing to
// time it against, so only the deterministic shape is checked.
func TestRunA7PlannerShapesHold(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scale = 0.15
	p, err := cfg.prepare("xmark1")
	if err != nil {
		t.Fatal(err)
	}
	snap := core.Build(p.doc, cfg.buildOpts(core.DefaultOptions())).Snapshot()
	for _, q := range []string{
		// income > 10 matches ~every person; the birthday window is ~2
		// months out of 12 years (~1.4%).
		`//person[profile/income > 10 and profile/birthday < xs:date("1998-03-01")]`,
		// Both sides selective: intersection territory.
		`//item[location = "Amsterdam" and quantity > 5]`,
	} {
		parsed, err := xpath.Parse(q)
		if err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
		scan, _, err := plan.Run(snap, parsed, plan.ForceScan)
		if err != nil {
			t.Fatal(err)
		}
		res, pl, err := plan.Run(snap, parsed, plan.Auto)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(scan) {
			t.Errorf("%s: planner %d hits, scan %d", q, len(res), len(scan))
		}
		if !pl.UsesIndex() {
			t.Errorf("%s: planner fell back to scan on the conjunctive workload\n%s", q, pl)
		}
	}
}

// TestAncestorLockingConflictsAtRoot pins the semantics the A5 ablation
// measures — any two overlapping ancestor-locking transactions conflict
// at the root, even on disjoint leaves — deterministically, instead of
// hoping the timed workload happens to overlap on a given scheduler.
func TestAncestorLockingConflictsAtRoot(t *testing.T) {
	ix, texts, err := buildA5Doc(DefaultConfig(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	lmgr := txn.NewLockingManager(ix)
	t1 := lmgr.Begin()
	if err := t1.SetText(texts[0], "held"); err != nil {
		t.Fatalf("first SetText: %v", err)
	}
	t2 := lmgr.Begin()
	if err := t2.SetText(texts[1], "blocked"); err != txn.ErrConflict {
		t.Fatalf("overlapping SetText on a disjoint leaf: err = %v, want ErrConflict", err)
	}
	t2.Abort()
	if err := t1.Commit(); err != nil {
		t.Fatalf("commit after contender aborted: %v", err)
	}
	if _, aborts := lmgr.Stats(); aborts == 0 {
		t.Error("abort count not recorded")
	}
}
