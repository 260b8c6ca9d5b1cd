package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/xpath"
)

// --- A8: text predicates — q-gram substring index vs scan ---

// A8Row is one text-heavy query measured with the substring index
// enabled: a contains()/starts-with() predicate evaluated by a forced
// document scan, by the forced index drive (the q-gram access path), and
// by the cost-based planner — plus which strategy the planner chose.
// Result counts are cross-checked between all arms.
type A8Row struct {
	Dataset      string
	Query        string
	Hits         int
	ScanMS       float64
	IndexMS      float64
	AutoMS       float64
	SpeedupX     float64 // scan over forced index
	AutoIndex    bool    // the planner chose the substring drive
	BytesPerNode float64 // packed-layout footprint incl. the gram tree
}

// A8Queries returns the text-predicate workload for a dataset: a
// selective contains() on a text leaf, a starts-with() on an attribute,
// and a broader contains() that stresses candidate verification.
func A8Queries(dataset string) []string {
	switch dataset {
	case "xmark1", "xmark2", "xmark4", "xmark8":
		return []string{
			`//person[contains(emailaddress/text(), "mailto:w")]`,
			`//person[starts-with(@id, "person10")]`,
			`//item[contains(name/text(), "bidder")]`,
		}
	default:
		return nil
	}
}

// RunA8 measures one dataset's text-predicate workload with the
// substring index enabled (so the planner can enumerate the q-gram
// access path) against the scan baseline.
func RunA8(cfg Config, dataset string) ([]A8Row, error) {
	p, err := cfg.prepare(dataset)
	if err != nil {
		return nil, err
	}
	ix := core.Build(p.doc, cfg.buildOpts(core.DefaultOptions()))
	ix.EnableSubstring()
	bpn := ix.Snapshot().MemStats().BytesPerNode
	var rows []A8Row
	for _, q := range A8Queries(dataset) {
		parsed, err := xpath.Parse(q)
		if err != nil {
			return nil, fmt.Errorf("query %q: %v", q, err)
		}
		row := A8Row{Dataset: dataset, Query: q, BytesPerNode: bpn}
		// Warm-up (untimed), as in RunA6.
		for _, m := range []plan.Mode{plan.ForceScan, plan.ForceIndex, plan.Auto} {
			if _, _, err := plan.Run(ix.Snapshot(), parsed, m); err != nil {
				return nil, err
			}
		}
		var scanNS, idxNS, autoNS int64
		for r := 0; r < cfg.repeat(); r++ {
			start := time.Now()
			res, _, err := plan.Run(ix.Snapshot(), parsed, plan.ForceScan)
			if err != nil {
				return nil, err
			}
			scanNS += time.Since(start).Nanoseconds()
			row.Hits = len(res)

			start = time.Now()
			res2, _, err := plan.Run(ix.Snapshot(), parsed, plan.ForceIndex)
			if err != nil {
				return nil, err
			}
			idxNS += time.Since(start).Nanoseconds()
			if len(res2) != row.Hits {
				return nil, fmt.Errorf("query %q: forced index %d hits, scan %d", q, len(res2), row.Hits)
			}

			start = time.Now()
			res3, pl, err := plan.Run(ix.Snapshot(), parsed, plan.Auto)
			if err != nil {
				return nil, err
			}
			autoNS += time.Since(start).Nanoseconds()
			if len(res3) != row.Hits {
				return nil, fmt.Errorf("query %q: auto %d hits, scan %d", q, len(res3), row.Hits)
			}
			row.AutoIndex = pl.UsesIndex()
		}
		n := int64(cfg.repeat())
		row.ScanMS = float64(scanNS/n) / 1e6
		row.IndexMS = float64(idxNS/n) / 1e6
		row.AutoMS = float64(autoNS/n) / 1e6
		if row.IndexMS > 0 {
			row.SpeedupX = row.ScanMS / row.IndexMS
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ReportA8 renders the substring-index comparison.
func ReportA8(w io.Writer, rows []A8Row) {
	var t [][]string
	for _, r := range rows {
		auto := "scan"
		if r.AutoIndex {
			auto = "index"
		}
		t = append(t, []string{
			r.Query,
			fmt.Sprint(r.Hits),
			fmt.Sprintf("%.2f", r.ScanMS),
			fmt.Sprintf("%.2f", r.IndexMS),
			fmt.Sprintf("%.2f", r.AutoMS),
			fmt.Sprintf("%.1fx", r.SpeedupX),
			auto,
			fmt.Sprintf("%.1f", r.BytesPerNode),
		})
	}
	table(w, "A8 — text predicates: document scan vs q-gram substring index",
		[]string{"query", "hits", "scan ms", "index ms", "auto ms", "speedup", "auto chose", "B/node"}, t)
}
