// Command benchjson converts `go test -bench` output into a stable JSON
// document (the BENCH_*.json artifacts CI archives per run, seeding the
// performance trajectory across PRs) or, with -summary, into a Markdown
// digest for the CI job summary, including the serial-vs-parallel build
// comparison when both BenchmarkBuild sub-benchmarks are present.
//
// Usage:
//
//	go test -bench . -benchtime 1x | benchjson > BENCH_PR.json
//	benchjson -summary < bench.txt >> "$GITHUB_STEP_SUMMARY"
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one benchmark result line: its name (GOMAXPROCS suffix
// stripped into Procs), iteration count, and every reported metric —
// ns/op, B/op, allocs/op, and the custom b.ReportMetric units.
type Benchmark struct {
	Name       string             `json:"name"`
	Procs      int                `json:"procs"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the whole parsed bench run.
type Report struct {
	GoOS       string      `json:"goos,omitempty"`
	GoArch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	summary := flag.Bool("summary", false, "emit a Markdown summary instead of JSON")
	flag.Parse()

	report, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(report.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines in input")
		os.Exit(1)
	}
	if *summary {
		writeSummary(os.Stdout, report)
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func parse(r io.Reader) (*Report, error) {
	report := &Report{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			report.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			report.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			report.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			report.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseBenchLine(line)
			if ok {
				report.Benchmarks = append(report.Benchmarks, b)
			}
		}
	}
	return report, sc.Err()
}

// parseBenchLine parses one result line, e.g.
//
//	BenchmarkBuild/p4-8   1   1165136 ns/op   42.0 speedup_x
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	name, procs := splitProcs(fields[0])
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Procs: procs, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}

// splitProcs strips the -GOMAXPROCS suffix go test appends when procs
// is not 1 (a plain name means procs = 1).
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 1
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil || procs <= 0 {
		return name, 1
	}
	return name[:i], procs
}

func writeSummary(w io.Writer, report *Report) {
	fmt.Fprintf(w, "## Benchmarks (%s/%s", report.GoOS, report.GoArch)
	if report.CPU != "" {
		fmt.Fprintf(w, ", %s", report.CPU)
	}
	fmt.Fprintln(w, ")")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| benchmark | iterations | ns/op | other metrics |")
	fmt.Fprintln(w, "|---|---:|---:|---|")
	for _, b := range report.Benchmarks {
		extras := make([]string, 0, len(b.Metrics))
		for unit, v := range b.Metrics {
			if unit == "ns/op" {
				continue
			}
			extras = append(extras, fmt.Sprintf("%g %s", v, unit))
		}
		sort.Strings(extras)
		fmt.Fprintf(w, "| %s | %d | %.0f | %s |\n",
			b.Name, b.Iterations, b.Metrics["ns/op"], strings.Join(extras, ", "))
	}
	fmt.Fprintln(w)
	if p1, p4 := buildNS(report, "p1"), buildNS(report, "p4"); p1 > 0 && p4 > 0 {
		fmt.Fprintf(w, "**Parallel index build:** Parallelism=1 %.2fms vs Parallelism=4 %.2fms → **%.2fx speedup**\n",
			p1/1e6, p4/1e6, p1/p4)
	}
	if loScan, loIdx := metricOf(report, "BenchmarkQueryPlannerCrossover", "lo_scan_ms"),
		metricOf(report, "BenchmarkQueryPlannerCrossover", "lo_index_ms"); loScan > 0 && loIdx > 0 {
		fmt.Fprintf(w, "**Scan/index crossover:** low selectivity scan %.3fms vs index %.3fms",
			loScan, loIdx)
		if hiScan, hiIdx := metricOf(report, "BenchmarkQueryPlannerCrossover", "hi_scan_ms"),
			metricOf(report, "BenchmarkQueryPlannerCrossover", "hi_index_ms"); hiScan > 0 && hiIdx > 0 {
			fmt.Fprintf(w, "; high selectivity scan %.3fms vs index %.3fms", hiScan, hiIdx)
		}
		fmt.Fprintln(w)
	}
	if bpn := metricOf(report, "BenchmarkMemFootprint", "bytes_per_node"); bpn > 0 {
		if unpacked := metricOf(report, "BenchmarkMemFootprint", "unpacked_bytes_per_node"); unpacked > 0 {
			fmt.Fprintf(w, "**Memory footprint:** packed layout %.1f bytes/node vs %.1f unpacked → **%.0f%% smaller**\n",
				bpn, unpacked, (1-bpn/unpacked)*100)
		} else {
			fmt.Fprintf(w, "**Memory footprint:** %.1f bytes/node\n", bpn)
		}
	}
	if speedup := metricOf(report, "BenchmarkSubstring/indexed", "speedup_x"); speedup > 0 {
		fmt.Fprintf(w, "**Substring vs scan:** contains() through the q-gram index vs full document scan → **%.1fx speedup**\n",
			speedup)
	}
	if rw, snap := metricOf(report, "BenchmarkConcurrentQPS", "rwmutex_qps"),
		metricOf(report, "BenchmarkConcurrentQPS", "snapshot_qps"); rw > 0 && snap > 0 {
		fmt.Fprintf(w, "**Concurrent reads (8 readers + update storm):** RWMutex %.0f reads/s vs MVCC snapshots %.0f reads/s → **%.0fx speedup**\n",
			rw, snap, snap/rw)
	}
	if qps := metricOf(report, "BenchmarkServeTraffic", "qps"); qps > 0 {
		fmt.Fprintf(w, "**Served traffic (xviload vs xvid):** %.0f QPS — read p50 %.2fms / p99 %.2fms, patch p50 %.2fms / p99 %.2fms, %.0f watch events, %.0f errors\n",
			qps,
			metricOf(report, "BenchmarkServeTraffic", "read_p50_ms"),
			metricOf(report, "BenchmarkServeTraffic", "read_p99_ms"),
			metricOf(report, "BenchmarkServeTraffic", "patch_p50_ms"),
			metricOf(report, "BenchmarkServeTraffic", "patch_p99_ms"),
			metricOf(report, "BenchmarkServeTraffic", "watch_events"),
			metricOf(report, "BenchmarkServeTraffic", "errors"))
	}
	if qps := metricOf(report, "BenchmarkReplicaTraffic", "qps"); qps > 0 {
		fmt.Fprintf(w, "**Replicated traffic (leader + follower):** %.0f QPS — replica lag p50 %.2fms / p99 %.2fms (patch on leader → visible on follower), read p50 %.2fms / p99 %.2fms, %.0f watch events, %.0f errors\n",
			qps,
			metricOf(report, "BenchmarkReplicaTraffic", "lag_p50_ms"),
			metricOf(report, "BenchmarkReplicaTraffic", "lag_p99_ms"),
			metricOf(report, "BenchmarkReplicaTraffic", "read_p50_ms"),
			metricOf(report, "BenchmarkReplicaTraffic", "read_p99_ms"),
			metricOf(report, "BenchmarkReplicaTraffic", "watch_events"),
			metricOf(report, "BenchmarkReplicaTraffic", "errors"))
	}
}

// metricOf returns one named metric of one benchmark, or 0 when absent.
func metricOf(report *Report, bench, unit string) float64 {
	for _, b := range report.Benchmarks {
		if b.Name == bench {
			return b.Metrics[unit]
		}
	}
	return 0
}

// buildNS returns BenchmarkBuild/<sub>'s ns/op, or 0 when absent.
func buildNS(report *Report, sub string) float64 {
	for _, b := range report.Benchmarks {
		if b.Name == "BenchmarkBuild/"+sub {
			return b.Metrics["ns/op"]
		}
	}
	return 0
}
