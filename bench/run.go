package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"
)

// workload is one traffic mix. Two client goroutines each, the machine's
// core count: more clients than cores would measure the scheduler.
type workload struct {
	Name       string
	Why        string
	Readers    int     // closed-loop readers
	Scan       bool    // readers use the scan mix, not the point mix
	Writers    int     // closed-loop writers, full patch mix
	PacedHz    float64 // one open-loop writer of set_text batches at this rate
	Structural bool
}

var workloads = []workload{
	{Name: "read-point", Readers: 2,
		Why: "selective indexed predicates, tiny results: parse, plan, posting iteration, leaf decode and HTTP+JSON framing do the work"},
	{Name: "read-scan", Readers: 2, Scan: true,
		Why: "shapes that bypass the index and ranges that defeat it, up to 1000 hits: scan evaluator, materialisation and JSON encoding do the work"},
	{Name: "write-durable", Writers: 2, Structural: true,
		Why: "patches only, two writers: validate, copy-on-write clone, apply, WAL append, fsync and publish do the work; mutex wait shows"},
	{Name: "mixed", Readers: 1, PacedHz: 50,
		Why: "one reader beside one writer paced at 50 patches/s: clones and garbage compete with lock-free reads for two cores"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	setUps = 5 // set-ups per run; setup_s is their median
	slices = 6 // slices of a measured phase; throughput is the median slice's

	// The probes: one closed-loop client on an otherwise idle server, for
	// the metric family a workload's own window does not exercise.
	readProbeDur  = 3 * time.Second
	writeProbeDur = 3 * time.Second
)

// warmUp is the unmeasured lead-in of a measured phase: a fifth of it, at
// most 3 s.
func warmUp(measured time.Duration) time.Duration {
	return min(measured/5, 3*time.Second)
}

// env is one run's served instance with its generator state.
type env struct {
	in      *instance
	dom     *domain
	traffic *traffic
	point   *readMix
	scan    *readMix
	seed    int64
}

func newEnv(in *instance, seed int64) (*env, error) {
	dom, err := collectDomain(in.doc)
	if err != nil {
		return nil, err
	}
	e := &env{in: in, dom: dom, traffic: newTraffic(in, dom), seed: seed}
	if e.point, err = pointMix(dom, seed); err != nil {
		return nil, err
	}
	if e.scan, err = scanMix(dom, seed); err != nil {
		return nil, err
	}
	return e, nil
}

// mix is the query mix the workload's readers use; workloads without
// readers are probed and verified with the point mix.
func (e *env) mix(w workload) *readMix {
	if w.Scan {
		return e.scan
	}
	return e.point
}

// spec builds the workload's phase. Streams are created once per run, so
// the warm-up and the window continue one request sequence.
func (e *env) spec(w workload) phaseSpec {
	var s phaseSpec
	for c := 0; c < w.Readers; c++ {
		s.readers = append(s.readers, e.mix(w).stream(e.seed, c))
	}
	for c := 0; c < w.Writers; c++ {
		s.writers = append(s.writers, newPatchStream(e.dom, e.seed, c, w.Structural))
	}
	if w.PacedHz > 0 {
		s.paced, s.pacedHz = newPatchStream(e.dom, e.seed, 0, false), w.PacedHz
	}
	return s
}

// readProbe and writeProbe are the probe phases. Client ids 8 and 9 keep
// their streams apart from the window's.
func (e *env) readProbe() phaseSpec {
	return phaseSpec{readers: []*readStream{e.point.stream(e.seed, 8)}, dur: readProbeDur}
}

func (e *env) writeProbe() phaseSpec {
	return phaseSpec{writers: []*patchStream{newPatchStream(e.dom, e.seed, 9, false)}, dur: writeProbeDur}
}

// measure runs main as a measured phase and, when probe has a duration,
// probe between its slices: a collection, so that the phase starts from a
// heap without the previous one's garbage, each spec's warm-up, then
// `slices` rounds of one slice of main and one of probe. Spreading the
// probe over the whole phase matters on a shared machine, whose speed
// drifts by 10-15 % over seconds: a probe run in one piece samples one of
// its moods. afterMain, when not nil, sees each slice of main before the
// probe runs (the scan oracle, while the document is still what the
// readers saw). Failures count into out, the warm-ups' too.
func (e *env) measure(main, probe phaseSpec, out *outcome, afterMain func(*phaseStats)) (window, probed *phaseStats) {
	runtime.GC()
	specs := []phaseSpec{main}
	if probe.dur > 0 {
		specs = append(specs, probe)
	}
	for i := range specs {
		warm := specs[i]
		warm.dur, warm.keepSamples = warmUp(warm.dur), false
		st := e.traffic.run(warm)
		out.add(st.attempted, st.failed, st.errs)
		specs[i].dur /= slices
	}
	totals := []*phaseStats{{}, {}}
	for round := 0; round < slices; round++ {
		for i, spec := range specs {
			if len(specs) > 1 {
				// Neither side starts on the other's garbage.
				runtime.GC()
			}
			st := e.traffic.run(spec)
			out.add(st.attempted, st.failed, st.errs)
			if i == 0 && afterMain != nil {
				afterMain(st)
			}
			st.samples = nil // decoded responses are large; checked or not, they are done with
			totals[i].addSlice(st)
		}
	}
	return totals[0], totals[1]
}

// outcome is everything one run measured.
type outcome struct {
	measured  map[string]float64
	attempted int
	failed    int
	errs      []string
	notes     []string
}

func (o *outcome) add(attempted, failed int, errs []string) {
	o.attempted += attempted
	o.failed += failed
	o.errs = append(o.errs, errs...)
}

// readMetrics and patchMetrics turn one phase's observations into the
// end-to-end numbers and the served tails of the traced run; from says
// where they were observed.
func readMetrics(m map[string]float64, st *phaseStats, notes *[]string, from string) {
	familyMetrics(m, notes, "reads", from, st.readLat, st.readRates, "read_qps", "read_p50_ms", "served.read_p99_ms")
}

func patchMetrics(m map[string]float64, st *phaseStats, notes *[]string, from string) {
	familyMetrics(m, notes, "patches", from, st.patchLat, st.patchRates, "patch_per_s", "patch_p50_ms", "served.patch_p99_ms")
	if st.pacedSent > 0 {
		m["gen.late_frac"] = float64(st.pacedLate) / float64(st.pacedSent)
	}
}

func familyMetrics(m map[string]float64, notes *[]string, what, from string, latencies []time.Duration, rates []float64, rate, p50, p99 string) {
	lat := durationsMS(latencies)
	m[rate], m[p50], m[p99] = median(rates), percentile(lat, 50), percentile(lat, 99)
	*notes = append(*notes, fmt.Sprintf("%s (%s): n=%d p50=%.3f ms p99=%.3f ms, highest supported tail p%g",
		what, from, len(lat), m[p50], m[p99], supportedTail(len(lat))))
}

// repeatedSetUp sets the instance up setUps times, tearing every one but
// the last down again, and returns the last with the median set-up time.
func repeatedSetUp(outDir string, seed int64) (*instance, float64, error) {
	var (
		in    *instance
		times []float64
	)
	for i := 0; i < setUps; i++ {
		if in != nil {
			if err := in.tearDown(); err != nil {
				return nil, 0, err
			}
			// The old document is garbage now; collect it here, outside
			// the next set-up's timing.
			runtime.GC()
		}
		var (
			took time.Duration
			err  error
		)
		in, took, err = setUp(filepath.Join(outDir, fmt.Sprintf("run-%d", i)), docScale, seed, nil)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, took.Seconds())
	}
	return in, median(times), nil
}

// staticMetrics are the set-up's memory and disk numbers.
func staticMetrics(m map[string]float64, in *instance) error {
	m["mem_bytes_per_node"] = in.doc.MemStats().BytesPerNode
	size, err := fileSize(in.snapshot)
	if err != nil {
		return err
	}
	m["disk_bytes_per_xml_byte"] = float64(size) / float64(in.xmlBytes)
	return nil
}

// runWorkload is one untraced run: set up, measure the window with the
// probe for what it does not exercise between its slices, check the
// answers, and verify the state left behind.
func runWorkload(w workload, seed int64, window time.Duration, outDir string, log io.Writer) (*outcome, error) {
	out := &outcome{measured: map[string]float64{}}
	t0 := time.Now()
	lap := func(what string) { fmt.Fprintf(log, "  [%6.2fs] %s\n", time.Since(t0).Seconds(), what) }
	in, setupS, err := repeatedSetUp(outDir, seed)
	if err != nil {
		return nil, err
	}
	defer in.tearDown() //nolint:errcheck // the run's outcome is already decided
	out.measured["setup_s"] = setupS
	if err := staticMetrics(out.measured, in); err != nil {
		return nil, err
	}
	e, err := newEnv(in, seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "%s seed %d: %d nodes, %d XML bytes, set-up %.3f s (median of %d); WAL fsync after every record\n",
		w.Name, seed, e.dom.Nodes, in.xmlBytes, setupS, setUps)

	lap("set up, domain collected")
	static := w.Writers == 0 && w.PacedHz == 0
	main := e.spec(w)
	main.dur, main.keepSamples = window, static
	var (
		c               checks
		probe           phaseSpec
		oracle          func(*phaseStats)
		sampled, beyond int
	)
	switch {
	case static:
		// Each slice's samples meet the oracle before the write probe's
		// next slice changes the document.
		probe = e.writeProbe()
		oracle = func(st *phaseStats) {
			sampled += len(st.samples)
			beyond += c.verifySamples(in.doc, st.samples)
		}
	case w.Readers == 0:
		probe = e.readProbe()
	}
	st, probed := e.measure(main, probe, out, oracle)
	switch {
	case static:
		readMetrics(out.measured, st, &out.notes, "window")
		patchMetrics(out.measured, probed, &out.notes, "probe")
		out.notes = append(out.notes, fmt.Sprintf("oracle: %d sampled responses, %d beyond the cap of %d distinct queries per slice",
			sampled, beyond, oracleCap))
	case w.Readers == 0:
		patchMetrics(out.measured, st, &out.notes, "window")
		readMetrics(out.measured, probed, &out.notes, "probe")
	default:
		readMetrics(out.measured, st, &out.notes, "window")
		patchMetrics(out.measured, st, &out.notes, "window")
	}
	lap("window and probe done")
	c.verifyFinal(e.traffic, e.mix(w).distinct(), newPatchStream(e.dom, e.seed, 7, true))
	lap("final state verified")
	out.add(c.attempted, c.failed, c.errs)
	return out, nil
}
