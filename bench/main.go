// Command bench is the repository's served-traffic benchmark: it serves a
// generated XMark document through the xvid HTTP handler on a loopback
// listener, drives one of four workloads against it from the same process,
// checks the answers against the scan oracle and the durable pair on disk,
// and prints every metric by name and unit. See README.md.
//
//	bash bench/run.sh --workload read-point --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh --workload read-point --seed 1 --seconds 12 --trace 1
//	bash bench/run.sh --repeat 2
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: read-point, read-scan, write-durable or mixed")
		seed    = flag.Int64("seed", 1, "seeds the document and the request stream (2 is reserved for verifying claims)")
		seconds = flag.Int("seconds", 12, "length of the measured window")
		trace   = flag.Int("trace", 0, "1: the traced run, per-layer metrics; 0: the end-to-end metrics")
		repeat  = flag.Int("repeat", 0, "run the full set of workloads this many times, with consecutive seeds, and print the spread of every end-to-end metric")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	outDir, err := outputDir()
	if err != nil {
		fatal(err)
	}
	window := time.Duration(*seconds) * time.Second
	if *repeat > 0 {
		if err := runRepeat(*repeat, *seed, window, outDir, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		flag.Usage()
		os.Exit(2)
	}
	fmt.Printf("bench: %s, GOMAXPROCS %d, %d clients at most\n", runtime.Version(), runtime.GOMAXPROCS(0), 2)

	var (
		out  *outcome
		defs = endToEnd
	)
	if *trace == 1 {
		defs = perLayer
		out, err = runTraced(w, *seed, window, outDir, os.Stdout)
	} else {
		out, err = runWorkload(w, *seed, window, outDir, os.Stdout)
	}
	if err != nil {
		fatal(err)
	}
	if err := report(os.Stdout, defs, out); err != nil {
		fatal(err)
	}
	if out.failed > 0 {
		os.Exit(1)
	}
}

// report prints the run: notes, errors, the metric table, and as the last
// line the result object.
func report(w io.Writer, defs []metricDef, out *outcome) error {
	for _, n := range out.notes {
		fmt.Fprintln(w, " ", n)
	}
	for _, e := range out.errs {
		fmt.Fprintln(w, "  FAILED:", e)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, fail_frac %.6f\n", out.attempted, out.failed,
		float64(out.failed)/float64(max(out.attempted, 1)))
	printMetrics(w, defs, out.measured)
	metrics, err := collect(defs, out.measured)
	if err != nil {
		return err
	}
	return printResult(w, result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics,
	})
}

// outputDir is bench/out, where instances and traces go; run.sh starts the
// program in bench.
func outputDir() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(wd, "out")
	return dir, os.MkdirAll(dir, 0o755)
}

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
