package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"time"
)

// metricDef is one catalogue entry; the catalogue is what BENCHMARK.json
// declares, and TestCatalogue holds the two to each other.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the served system sees. Every
// workload reports all of them: a workload whose window does not exercise
// a family measures it in probe slices between the window's (see
// README.md, "Probes"). The bounds are three times the widest quartile
// spread the builder saw over ten seeds on a quiet machine, capped at 0.25
// (BASELINE.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"read_qps", "1/s", "higher", 0.20},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"patch_per_s", "1/s", "higher", 0.25},
	{"patch_p50_ms", "ms", "lower", 0.25},
	{"mem_bytes_per_node", "B/node", "lower", 0.01},
	{"disk_bytes_per_xml_byte", "B/B", "lower", 0.01},
}

// perLayer are the traced run's metrics, named <module>.<metric>.
var perLayer = []metricDef{
	// read path
	{"server.handler_us", "us", "lower", 0},
	{"server.net_us", "us", "lower", 0},
	{"server.inproc_us", "us", "lower", 0},
	{"server.decode_us", "us", "lower", 0},
	{"server.encode_us", "us", "lower", 0},
	{"server.resp_bytes", "B", "lower", 0},
	{"xmlvi.query_us", "us", "lower", 0},
	{"xmlvi.materialize_us", "us", "lower", 0},
	{"xpath.parse_us", "us", "lower", 0},
	{"plan.prepare_us", "us", "lower", 0},
	{"plan.execute_us", "us", "lower", 0},
	{"xpath.scan_us", "us", "lower", 0},
	{"core.iter_us", "us", "lower", 0},
	{"core.lookup_us", "us", "lower", 0},
	{"btree.seek_ns", "ns", "lower", 0},
	{"btree.next_ns", "ns", "lower", 0},
	{"btree.bytes_per_entry", "B", "lower", 0},
	// read path: waste and plan quality
	{"core.postings_per_result", "ratio", "lower", 0},
	{"plan.uses_index_frac", "ratio", "higher", 0},
	{"plan.est_over_actual_p50", "ratio", "lower", 0},
	{"plan.misestimate_frac", "ratio", "lower", 0},
	{"plan.index_slower_frac", "ratio", "lower", 0},
	// write path
	{"server.patch_handler_us", "us", "lower", 0},
	{"server.patch_set_text_us", "us", "lower", 0},
	{"server.patch_set_attr_us", "us", "lower", 0},
	{"server.patch_insert_us", "us", "lower", 0},
	{"server.patch_delete_us", "us", "lower", 0},
	{"xmlvi.update_mem_us", "us", "lower", 0},
	{"xmlvi.update_durable_us", "us", "lower", 0},
	{"core.commit_alloc_kb", "KB", "lower", 0},
	{"core.commit_scale_ratio", "ratio", "lower", 0},
	{"core.insert_us", "us", "lower", 0},
	{"core.delete_us", "us", "lower", 0},
	{"txn.commit_us", "us", "lower", 0},
	{"storage.wal_append_us", "us", "lower", 0},
	{"storage.wal_sync_us", "us", "lower", 0},
	{"storage.wal_bytes_per_commit", "B", "lower", 0},
	{"btree.insert_us", "us", "lower", 0},
	{"btree.delete_us", "us", "lower", 0},
	{"btree.clone_insert_us", "us", "lower", 0},
	// set-up
	{"datagen.generate_ms", "ms", "lower", 0},
	{"xmlparse.parse_mb_s", "MB/s", "higher", 0},
	{"core.build_ms", "ms", "lower", 0},
	{"core.substr_build_ms", "ms", "lower", 0},
	{"core.save_ms", "ms", "lower", 0},
	{"core.open_durable_ms", "ms", "lower", 0},
	{"core.verify_ms", "ms", "lower", 0},
	{"core.replay_us_per_rec", "us", "lower", 0},
	{"vhash.hash_ns_per_byte", "ns/B", "lower", 0},
	{"vhash.combine_ns", "ns", "lower", 0},
	{"mem.doc_bytes_per_node", "B/node", "lower", 0},
	{"mem.tree_bytes_per_node", "B/node", "lower", 0},
	{"mem.substr_bytes_per_node", "B/node", "lower", 0},
	// served tails, process and generator
	{"served.read_p99_ms", "ms", "lower", 0},
	{"served.patch_p99_ms", "ms", "lower", 0},
	{"go.alloc_kb_per_op", "KB", "lower", 0},
	{"go.gc_pause_ms", "ms", "lower", 0},
	{"go.heap_mb_end", "MB", "lower", 0},
	{"gen.late_frac", "ratio", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"trace.sum_over_handler", "ratio", "lower", 0},
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// value is one reported measurement.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// collect pairs the catalogue with measured values; a catalogue metric
// with no measurement is an error in the benchmark itself.
func collect(defs []metricDef, measured map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := measured[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (got %v)", d.Name, v)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// printMetrics writes the human-readable table: every metric by name, with
// its unit.
func printMetrics(w io.Writer, defs []metricDef, measured map[string]float64) {
	for _, d := range defs {
		if v, ok := measured[d.Name]; ok {
			fmt.Fprintf(w, "  %-30s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
}

func printResult(w io.Writer, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// ms and us convert a duration to fractional milli- and microseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice, 0 when it is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// tailPercentiles are the tails the benchmark may report, highest first.
var tailPercentiles = []float64{99, 95, 90}

// supportedTail returns the highest tail percentile with at least ten
// samples beyond it, 0 when even p90 has fewer: a tail read off fewer
// samples is one or two outliers, not a percentile.
func supportedTail(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 0
}

// durationsMS sorts latencies into ascending milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

// median of an unsorted slice; 0 when empty.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
