package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/xpath"
)

// --- A6: scan-vs-index selectivity crossover ---

// A6Row is one point of the crossover ablation (the paper's Figure
// 8-style experiment for the read path): a single range predicate at a
// target selectivity, measured under a forced document scan, a forced
// index drive, and the cost-based planner — plus which strategy the
// planner actually chose.
type A6Row struct {
	Dataset      string
	Selectivity  float64 // requested fraction of the value domain selected
	Hits         int
	ScanMS       float64
	IndexMS      float64
	AutoMS       float64
	AutoIndex    bool    // the planner chose the index drive
	BytesPerNode float64 // packed-layout footprint of the queried snapshot
}

// A6Selectivities are the default crossover sample points.
var A6Selectivities = []float64{0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.9}

// RunA6 sweeps range-predicate selectivity over the XMark stand-in's
// auction prices (uniform on [0, 5000)) and measures the three
// strategies at each point. At low selectivity the index drive wins by
// orders of magnitude; near 1.0 the scan wins because the index path
// pays per-candidate context mapping and verification for nearly every
// node. The planner switches sides near the crossover: at XMark scale 4
// it drives the index up to selectivity 0.25 and scans from 0.5.
func RunA6(cfg Config, dataset string, fracs []float64) ([]A6Row, error) {
	if len(fracs) == 0 {
		fracs = A6Selectivities
	}
	p, err := cfg.prepare(dataset)
	if err != nil {
		return nil, err
	}
	ix := core.Build(p.doc, cfg.buildOpts(core.DefaultOptions()))
	bpn := ix.Snapshot().MemStats().BytesPerNode
	var rows []A6Row
	for _, frac := range fracs {
		threshold := 5000 * (1 - frac)
		expr := fmt.Sprintf("//open_auction[initial > %.2f]", threshold)
		parsed, err := xpath.Parse(expr)
		if err != nil {
			return nil, fmt.Errorf("query %q: %v", expr, err)
		}
		row := A6Row{Dataset: dataset, Selectivity: frac, BytesPerNode: bpn}
		// Warm-up: one untimed run per arm, so one-time costs (first
		// touch of navigation paths, allocator warm-up) stay out of the
		// figures — the same policy warmMachines applies to the FSMs.
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
				return nil, fmt.Errorf("query %q: forced index %d hits, scan %d", expr, len(res2), row.Hits)
			}

			start = time.Now()
			res3, pl, err := plan.Run(ix.Snapshot(), parsed, plan.Auto)
			if err != nil {
				return nil, err
			}
			autoNS += time.Since(start).Nanoseconds()
			if len(res3) != row.Hits {
				return nil, fmt.Errorf("query %q: auto %d hits, scan %d", expr, len(res3), row.Hits)
			}
			row.AutoIndex = pl.UsesIndex()
		}
		n := int64(cfg.repeat())
		row.ScanMS = float64(scanNS/n) / 1e6
		row.IndexMS = float64(idxNS/n) / 1e6
		row.AutoMS = float64(autoNS/n) / 1e6
		rows = append(rows, row)
	}
	return rows, nil
}
