// Command xvibench runs the paper's evaluation (Section 6) and the
// ablation studies, printing each table and figure as aligned text next
// to the paper's reported shapes.
//
// Usage:
//
//	xvibench                         # everything at the default scale
//	xvibench -exp table1,fig11      # selected experiments
//	xvibench -scale 0.5 -repeat 3   # closer to paper size
//	xvibench -datasets xmark1,wiki
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/datagen"
	"repro/internal/experiments"
)

var allExperiments = []string{"table1", "fig9", "fig10", "fig11", "a1", "a2", "a3", "a4", "a5", "a6", "a8"}

// expAliases are the per-panel selectors that map onto a whole figure.
var expAliases = []string{"fig9a", "fig9b", "fig9c", "fig9d", "fig10a", "fig10b"}

func main() {
	scale := flag.Float64("scale", 0.25, "dataset scale (1.0 ≈ 1/64 of the paper's node counts)")
	seed := flag.Int64("seed", 42, "generator seed")
	repeat := flag.Int("repeat", 3, "measurements averaged per point")
	parallel := flag.Int("parallel", 0, "index-build worker goroutines (0 = GOMAXPROCS, 1 = serial)")
	expList := flag.String("exp", "all", "comma-separated experiments: "+strings.Join(allExperiments, ","))
	datasets := flag.String("datasets", "", "comma-separated dataset subset (default: all eight)")
	wal := flag.Bool("wal", false, "run the update experiments durably (write-ahead logging attached)")
	walSync := flag.Int("wal-sync", 64, "with -wal: fsync the log once every N records (1 = every record)")
	checkpointEvery := flag.Int("checkpoint-every", 0, "with -wal: checkpoint after every N measured update batches (0 = never)")
	flag.Parse()

	// Validate every selector up front, before any experiment burns time:
	// a typo must be a usable error and a non-zero exit, never a silent
	// empty report (an unknown -exp used to print nothing and exit 0, and
	// an unknown dataset only failed once its first experiment ran).
	if *scale <= 0 {
		usageError(fmt.Sprintf("-scale must be positive, got %g", *scale))
	}
	if *parallel < 0 {
		usageError(fmt.Sprintf("-parallel must be >= 0 (0 = GOMAXPROCS, 1 = serial), got %d", *parallel))
	}
	if *checkpointEvery < 0 {
		usageError(fmt.Sprintf("-checkpoint-every must be >= 0, got %d", *checkpointEvery))
	}
	if !*wal && *checkpointEvery > 0 {
		usageError("-checkpoint-every requires -wal")
	}
	cfg := experiments.Config{
		Scale: *scale, Seed: *seed, Repeat: *repeat, Parallelism: *parallel,
		WAL: *wal, WALSyncEvery: *walSync, CheckpointEvery: *checkpointEvery,
	}
	if *datasets != "" {
		known := map[string]bool{}
		for _, d := range datagen.Names {
			known[d] = true
		}
		for _, d := range strings.Split(*datasets, ",") {
			d = strings.TrimSpace(d)
			if !known[d] {
				usageError(fmt.Sprintf("unknown dataset %q (known: %s)", d, strings.Join(datagen.Names, ", ")))
			}
			cfg.Datasets = append(cfg.Datasets, d)
		}
	}
	selected := map[string]bool{}
	if *expList == "all" {
		for _, e := range allExperiments {
			selected[e] = true
		}
	} else {
		known := map[string]bool{}
		for _, e := range append(append([]string{}, allExperiments...), expAliases...) {
			known[e] = true
		}
		for _, e := range strings.Split(*expList, ",") {
			e = strings.TrimSpace(e)
			if !known[e] {
				usageError(fmt.Sprintf("unknown experiment %q (known: %s; panels: %s)",
					e, strings.Join(allExperiments, ", "), strings.Join(expAliases, ", ")))
			}
			selected[e] = true
		}
	}
	out := os.Stdout

	if selected["table1"] {
		rows, err := experiments.RunTable1(cfg)
		if err != nil {
			fatal(err)
		}
		experiments.ReportTable1(out, rows)
	}
	if selected["fig9"] || selected["fig9a"] || selected["fig9b"] || selected["fig9c"] || selected["fig9d"] {
		rows, err := experiments.RunFig9(cfg)
		if err != nil {
			fatal(err)
		}
		experiments.ReportFig9(out, rows)
	}
	if selected["fig10"] || selected["fig10a"] || selected["fig10b"] {
		points, err := experiments.RunFig10(cfg)
		if err != nil {
			fatal(err)
		}
		experiments.ReportFig10(out, points)
	}
	if selected["fig11"] {
		rows, sums, err := experiments.RunFig11(cfg)
		if err != nil {
			fatal(err)
		}
		experiments.ReportFig11(out, rows, sums)
	}
	if selected["a1"] {
		var rows []experiments.A1Row
		for _, updates := range []int{10, 100, 1000} {
			row, err := experiments.RunA1(cfg, firstDataset(cfg), updates)
			if err != nil {
				fatal(err)
			}
			rows = append(rows, row)
		}
		experiments.ReportA1(out, rows)
	}
	if selected["a2"] {
		experiments.ReportA2(out, experiments.RunA2(cfg))
	}
	if selected["a3"] {
		rows, err := experiments.RunA3(cfg, firstDataset(cfg))
		if err != nil {
			fatal(err)
		}
		experiments.ReportA3(out, rows)
	}
	if selected["a4"] {
		row, err := experiments.RunA4(cfg, firstDataset(cfg))
		if err != nil {
			fatal(err)
		}
		experiments.ReportA4(out, []experiments.A4Row{row})
	}
	if selected["a5"] {
		row, err := experiments.RunA5(cfg, 8, 100)
		if err != nil {
			fatal(err)
		}
		experiments.ReportA5(out, row)
	}
	if selected["a6"] {
		rows, err := experiments.RunA6(cfg, plannerDataset(cfg), nil)
		if err != nil {
			fatal(err)
		}
		experiments.ReportA6(out, rows)
	}
	if selected["a8"] {
		rows, err := experiments.RunA8(cfg, plannerDataset(cfg))
		if err != nil {
			fatal(err)
		}
		experiments.ReportA8(out, rows)
	}
	fmt.Fprintln(out)
}

func firstDataset(cfg experiments.Config) string {
	if len(cfg.Datasets) > 0 {
		return cfg.Datasets[0]
	}
	return "xmark1"
}

// plannerDataset picks the dataset for the planner ablations (A6/A8),
// whose query workloads are XMark-shaped: the first selected xmark
// variant, falling back to xmark1.
func plannerDataset(cfg experiments.Config) string {
	for _, d := range cfg.Datasets {
		if strings.HasPrefix(d, "xmark") {
			return d
		}
	}
	return "xmark1"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xvibench:", err)
	os.Exit(1)
}

func usageError(msg string) {
	fmt.Fprintln(os.Stderr, "xvibench:", msg)
	os.Exit(2)
}
