package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// runRepeat runs the full set of workloads n times, set i with seed+i, and
// prints for every end-to-end metric of every workload the median, the
// extremes and whether their distance stays within the metric's bound.
// The table is Markdown, as committed in BASELINE.md.
func runRepeat(n int, seed int64, window time.Duration, outDir string, log io.Writer) error {
	values := map[string]map[string][]float64{} // workload -> metric -> one value per set
	failed := 0
	for set := 0; set < n; set++ {
		for _, w := range workloads {
			out, err := runWorkload(w, seed+int64(set), window, outDir, io.Discard)
			if err != nil {
				return fmt.Errorf("%s, set %d: %w", w.Name, set+1, err)
			}
			failed += out.failed
			for _, e := range out.errs {
				fmt.Fprintf(log, "FAILED %s, set %d: %s\n", w.Name, set+1, e)
			}
			if values[w.Name] == nil {
				values[w.Name] = map[string][]float64{}
			}
			for _, d := range endToEnd {
				values[w.Name][d.Name] = append(values[w.Name][d.Name], out.measured[d.Name])
			}
			fmt.Fprintf(log, "set %d/%d %s done: fail_frac %.6f\n", set+1, n, w.Name,
				float64(out.failed)/float64(max(out.attempted, 1)))
		}
	}
	fmt.Fprintf(log, "\n%d sets, seeds %d..%d, window %s, %s, GOMAXPROCS %d, %d CPUs\n\n",
		n, seed, seed+int64(n)-1, window, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Fprintln(log, "| workload | metric | unit | median | min | max | (max-min)/median | bound | |")
	fmt.Fprintln(log, "|---|---|---|---|---|---|---|---|---|")
	for _, w := range workloads {
		for _, d := range endToEnd {
			vs := append([]float64(nil), values[w.Name][d.Name]...)
			sort.Float64s(vs)
			med := (vs[(len(vs)-1)/2] + vs[len(vs)/2]) / 2
			spread := (vs[len(vs)-1] - vs[0]) / med
			verdict := "PASS"
			if spread > d.Bound {
				verdict = "FAIL"
			}
			fmt.Fprintf(log, "| %s | %s | %s | %.4f | %.4f | %.4f | %.2f %% | %.0f %% | %s |\n",
				w.Name, d.Name, d.Unit, med, vs[0], vs[len(vs)-1], 100*spread, 100*d.Bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d failed or wrong operations", failed)
	}
	return nil
}
