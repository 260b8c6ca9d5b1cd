package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Reporting: aligned text tables matching the paper's artefacts, written
// to any io.Writer (the xvibench command and EXPERIMENTS.md use these).

func table(w io.Writer, title string, headers []string, rows [][]string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("=", len(title)))
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}

// ReportTable1 renders E1 next to the paper's numbers.
func ReportTable1(w io.Writer, rows []Table1Row) {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Dataset,
			fmt.Sprintf("%.1f", r.SizeMB),
			fmt.Sprint(r.TotalNodes),
			fmt.Sprintf("%d (%.0f%%)", r.TextNodes, r.TextPct),
			fmt.Sprintf("%.0f%%", r.PaperTextPct),
			fmt.Sprintf("%d (%.1f%%)", r.DoubleTexts, r.DoublePct),
			fmt.Sprintf("%.1f%%", r.PaperDoublePct),
			fmt.Sprint(r.NonLeaf),
			fmt.Sprint(r.PaperNonLeaf),
			fmt.Sprintf("%d (%.1f%%)", r.DateValues, r.DatePct),
		})
	}
	table(w, "Table 1 — dataset statistics (measured vs paper)",
		[]string{"dataset", "MB", "nodes", "text nodes", "paper", "double values", "paper", "non-leaf", "paper", "date values"}, out)
}

// ReportFig9 renders E2–E5.
func ReportFig9(w io.Writer, rows []Fig9Row) {
	var t [][]string
	for _, r := range rows {
		t = append(t, []string{
			r.Dataset,
			fmt.Sprintf("%.1f", r.ShredMS),
			fmt.Sprintf("%.1f", r.StringIdxMS),
			fmt.Sprintf("%.1f%%", r.StringTimePct),
			fmt.Sprintf("%.1f", r.DoubleIdxMS),
			fmt.Sprintf("%.1f%%", r.DoubleTimePct),
		})
	}
	table(w, "Figure 9 (top) — index creation time vs shred time (paper: string <10%, double <2%)",
		[]string{"dataset", "shred ms", "string ms", "string ovh", "double ms", "double ovh"}, t)

	t = t[:0]
	for _, r := range rows {
		t = append(t, []string{
			r.Dataset,
			fmt.Sprintf("%.2f", float64(r.DBBytes)/(1<<20)),
			fmt.Sprintf("%.2f", float64(r.StringIdxBytes)/(1<<20)),
			fmt.Sprintf("%.1f%%", r.StringSizePct),
			fmt.Sprintf("%.2f", float64(r.DoubleIdxBytes)/(1<<20)),
			fmt.Sprintf("%.1f%%", r.DoubleSizePct),
		})
	}
	table(w, "Figure 9 (bottom) — index storage vs DB storage (paper: string 10-20%, double <=2-3%)",
		[]string{"dataset", "db MB", "string MB", "string share", "double MB", "double share"}, t)
}

// ReportFig10 renders E6–E7 as one series per dataset.
func ReportFig10(w io.Writer, points []Fig10Point) {
	var t [][]string
	for _, p := range points {
		t = append(t, []string{
			p.Dataset,
			fmt.Sprint(p.Updated),
			fmt.Sprintf("%.2f", p.StringMS),
			fmt.Sprintf("%.2f", p.DoubleMS),
		})
	}
	table(w, "Figure 10 — update time vs number of updated nodes (paper: <400ms at 10^6; double <= string)",
		[]string{"dataset", "updated", "string ms", "double ms"}, t)
}

// ReportFig11 renders E8: the histogram and per-dataset summaries.
func ReportFig11(w io.Writer, rows []Fig11Row, sums []Fig11Summary) {
	var t [][]string
	for _, r := range rows {
		t = append(t, []string{r.Dataset, fmt.Sprint(r.ClusterSize), fmt.Sprint(r.HashValues)})
	}
	table(w, "Figure 11 — hash stability: #hash values with k distinct strings",
		[]string{"dataset", "k", "hash values"}, t)

	t = t[:0]
	for _, s := range sums {
		t = append(t, []string{
			s.Dataset,
			fmt.Sprint(s.DistinctStrings),
			fmt.Sprint(s.DistinctHashes),
			fmt.Sprintf("%.2f%%", s.CollidingPct),
			fmt.Sprint(s.MaxCluster),
		})
	}
	table(w, "Figure 11 — summary (paper: <1% colliding for most, <10% for PSD/Wiki, clusters up to 9)",
		[]string{"dataset", "distinct strings", "distinct hashes", "colliding", "max cluster"}, t)
}

// ReportA1 renders the C-vs-rehash ablation.
func ReportA1(w io.Writer, rows []A1Row) {
	var t [][]string
	for _, r := range rows {
		t = append(t, []string{
			r.Dataset, fmt.Sprint(r.Updates),
			fmt.Sprintf("%.2f", r.CombineMS),
			fmt.Sprintf("%.2f", r.RehashMS),
			fmt.Sprintf("%.1fx", r.SpeedupX),
			fmt.Sprintf("%.1f", r.AvgAncestor),
		})
	}
	table(w, "A1 — ancestor maintenance: combination function C vs naive re-hash",
		[]string{"dataset", "updates", "C ms", "rehash ms", "speedup", "avg ancestors"}, t)
}

// ReportA2 renders the SCT-vs-FSM ablation.
func ReportA2(w io.Writer, r A2Row) {
	table(w, "A2 — state combination: SCT probe vs FSM re-run",
		[]string{"pairs", "SCT ns/op", "FSM ns/op", "speedup"},
		[][]string{{
			fmt.Sprint(r.Pairs),
			fmt.Sprintf("%.1f", r.SCTNS),
			fmt.Sprintf("%.1f", r.FSMNS),
			fmt.Sprintf("%.1fx", r.SpeedupX),
		}})
}

// ReportA3 renders the query ablation.
func ReportA3(w io.Writer, rows []A3Row) {
	var t [][]string
	for _, r := range rows {
		t = append(t, []string{
			r.Dataset, r.Query, fmt.Sprint(r.Hits),
			fmt.Sprintf("%.2f", r.ScanMS),
			fmt.Sprintf("%.2f", r.IndexedMS),
			fmt.Sprintf("%.1fx", r.SpeedupX),
		})
	}
	table(w, "A3 — query evaluation: full scan vs index-accelerated",
		[]string{"dataset", "query", "hits", "scan ms", "indexed ms", "speedup"}, t)
}

// ReportA4 renders the one-pass ablation.
func ReportA4(w io.Writer, rows []A4Row) {
	var t [][]string
	for _, r := range rows {
		t = append(t, []string{
			r.Dataset,
			fmt.Sprintf("%.1f", r.OnePassMS),
			fmt.Sprintf("%.1f", r.ThreePassMS),
			fmt.Sprintf("%.2fx", r.SpeedupX),
		})
	}
	table(w, "A4 — creating all indices: one pass vs three passes",
		[]string{"dataset", "one-pass ms", "three-pass ms", "speedup"}, t)
}

// ReportA6 renders the scan-vs-index selectivity crossover.
func ReportA6(w io.Writer, rows []A6Row) {
	var t [][]string
	for _, r := range rows {
		auto := "scan"
		if r.AutoIndex {
			auto = "index"
		}
		t = append(t, []string{
			r.Dataset,
			fmt.Sprintf("%.3f", r.Selectivity),
			fmt.Sprint(r.Hits),
			fmt.Sprintf("%.2f", r.ScanMS),
			fmt.Sprintf("%.2f", r.IndexMS),
			fmt.Sprintf("%.2f", r.AutoMS),
			auto,
			fmt.Sprintf("%.1f", r.BytesPerNode),
		})
	}
	table(w, "A6 — range-predicate selectivity crossover: forced scan vs forced index vs planner",
		[]string{"dataset", "selectivity", "hits", "scan ms", "index ms", "auto ms", "auto chose", "B/node"}, t)
}

// ReportA5 renders the transaction ablation.
func ReportA5(w io.Writer, r A5Row) {
	table(w, "A5 — concurrent updates: commutative commit vs ancestor locking",
		[]string{"workers", "txns/worker", "commutative ms", "aborts", "locking ms", "aborts", "speedup"},
		[][]string{{
			fmt.Sprint(r.Workers), fmt.Sprint(r.TxnsPerWorker),
			fmt.Sprintf("%.1f", r.CommutativeMS), fmt.Sprint(r.CommutativeAbort),
			fmt.Sprintf("%.1f", r.LockingMS), fmt.Sprint(r.LockingAbort),
			fmt.Sprintf("%.1fx", r.SpeedupX),
		}})
}
