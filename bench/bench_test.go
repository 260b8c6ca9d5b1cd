package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	var hundred []float64
	for i := 1; i <= 100; i++ {
		hundred = append(hundred, float64(i))
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 50}, {99, 99}, {100, 100}, {0.5, 1}, {90, 90}} {
		if got := percentile(hundred, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3, 1, 2) = %g, want 2", got)
	}
}

// A tail percentile needs ten samples beyond it.
func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 0}, {0, 0}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

// The open loop's schedule is fixed by the start time and the rate alone.
func TestDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	for _, c := range []struct {
		i    int
		hz   float64
		want time.Duration
	}{{0, 50, 0}, {1, 50, 20 * time.Millisecond}, {50, 50, time.Second}, {3, 4, 750 * time.Millisecond}} {
		if got := dueTime(start, c.i, c.hz).Sub(start); got != c.want {
			t.Errorf("dueTime(i=%d, %g/s) = start+%v, want start+%v", c.i, c.hz, got, c.want)
		}
	}
}

// syntheticDomain is a small hand-made value domain, so that the stream
// tests depend on the generator alone and not on a document.
func syntheticDomain() *domain {
	d := &domain{TailParent: 5000, TailChildren: 7, Nodes: 6000}
	fill := func(f *field, base int32, value func(i int) string) {
		for i := 0; i < 40; i++ {
			f.Targets = append(f.Targets, base+int32(i)*3)
			if i%2 == 0 {
				f.Values = append(f.Values, value(i))
			}
		}
	}
	num := func(scale float64) func(int) string {
		return func(i int) string { return fmt.Sprintf("%.2f", float64(i)*scale+1) }
	}
	word := func(prefix string) func(int) string {
		return func(i int) string { return fmt.Sprintf("%s%02d", prefix, i) }
	}
	fill(&d.ItemWeight, 100, num(0.5))
	fill(&d.ItemLocation, 300, word("Loc"))
	fill(&d.ItemName, 500, func(i int) string { return fmt.Sprintf("thing%02d extra", i) })
	fill(&d.AuctionInitial, 700, num(101.25))
	fill(&d.AuctionCurrent, 900, num(77.5))
	fill(&d.AuctionQuantity, 1100, func(i int) string { return fmt.Sprint(1 + i%5) })
	fill(&d.BidderIncrease, 1300, num(3.75))
	fill(&d.PersonName, 1500, func(i int) string { return fmt.Sprintf("Ann%02d Bee%02d", i, i) })
	fill(&d.PersonEmail, 1700, func(i int) string { return fmt.Sprintf("mailto:box%02d@host%02d.example", i, i) })
	fill(&d.PersonBirthday, 1900, func(i int) string { return fmt.Sprintf("2001-%02d-%02d", 1+i%12, 1+i%28) })
	for i := 0; i < 40; i++ {
		d.PersonIDs = append(d.PersonIDs, fmt.Sprintf("person%d", 1000+i))
		d.Auctions = append(d.Auctions, 2100+int32(i)*20)
		d.AuctionIDs = append(d.AuctionIDs, fmt.Sprintf("auction%d", i))
	}
	return d
}

// streamHash digests the first requests of every stream a seed produces.
func streamHash(t *testing.T, seed int64) string {
	t.Helper()
	d := syntheticDomain()
	h := sha256.New()
	point, err := pointMix(d, seed)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := scanMix(d, seed)
	if err != nil {
		t.Fatal(err)
	}
	for client, mix := range []*readMix{point, scan} {
		s := mix.stream(seed, client)
		for i := 0; i < 500; i++ {
			h.Write(s.next().Body)
		}
	}
	for _, structural := range []bool{true, false} {
		s := newPatchStream(d, seed, 0, structural)
		for i := 0; i < 300; i++ {
			body, err := json.Marshal(patchRequest{Ops: s.next().Ops})
			if err != nil {
				t.Fatal(err)
			}
			h.Write(body)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// The same seed must produce the same bytes, on every machine and in every
// later version of the benchmark: a changed stream is a changed benchmark.
func TestStreamIsPinned(t *testing.T) {
	const pinned = "364ad77432021683ab9ac50081fa29a0309f488acc08a8b996bc8f1830005671"
	if got := streamHash(t, 1); got != pinned {
		t.Errorf("request stream for seed 1 hashes to %s, pinned %s", got, pinned)
	}
	if a, b := streamHash(t, 2), streamHash(t, 3); a == b {
		t.Errorf("seeds 2 and 3 produce the same request stream")
	}
}

func TestPatchMix(t *testing.T) {
	s := newPatchStream(syntheticDomain(), 1, 0, true)
	kinds := map[string]int{}
	const n = 4000
	for i := 0; i < n; i++ {
		p := s.next()
		kinds[p.Kind]++
		if p.Kind == kindSetText {
			if len(p.Ops) != textBatch {
				t.Fatalf("set_text patch with %d ops, want %d", len(p.Ops), textBatch)
			}
			seen := map[int32]bool{}
			for _, op := range p.Ops {
				if seen[*op.Node] {
					t.Fatalf("set_text patch names node %d twice", *op.Node)
				}
				seen[*op.Node] = true
			}
		}
	}
	for kind, want := range map[string]float64{kindSetText: 0.80, kindSetAttr: 0.10, kindInsert: 0.05, kindDelete: 0.05} {
		if got := float64(kinds[kind]) / n; got < want-0.02 || got > want+0.02 {
			t.Errorf("%s is %.3f of the patches, want about %.2f", kind, got, want)
		}
	}
}

// Fragments are appended and removed newest first, so the ids in flight
// stay valid; a delete with nothing to delete becomes an insert.
func TestTail(t *testing.T) {
	tl := &tail{parent: 9, children: 4, end: 100}
	insert := func() patchReq { return patchReq{Kind: kindInsert, Ops: []patchOp{{Op: kindInsert, XML: "<x/>"}}} }
	remove := func() patchReq { return patchReq{Kind: kindDelete, Ops: []patchOp{{Op: kindDelete, XML: "<x/>"}}} }

	p := remove()
	tl.fill(&p)
	if p.Kind != kindInsert || p.Ops[0].Op != kindInsert || *p.Ops[0].Node != 9 || p.Ops[0].Pos != 4 || p.Ops[0].XML == "" {
		t.Fatalf("delete on an empty tail became %+v, want an insert under node 9 at 4", p.Ops[0])
	}
	tl.done(p.Kind)
	p = insert()
	tl.fill(&p)
	if p.Ops[0].Pos != 5 {
		t.Fatalf("second insert at child %d, want 5", p.Ops[0].Pos)
	}
	tl.done(p.Kind)
	p = remove()
	tl.fill(&p)
	if p.Kind != kindDelete || *p.Ops[0].Node != 100+fragmentNodes || p.Ops[0].XML != "" {
		t.Fatalf("delete names %+v, want node %d", p.Ops[0], 100+fragmentNodes)
	}
	tl.done(p.Kind)
	if tl.end != 100+fragmentNodes || tl.children != 5 || len(tl.inserted) != 1 {
		t.Fatalf("tail after insert, insert, delete: %+v", tl)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 2, Name: "a1", Start: 12, End: 18},
		{ID: 6, Name: "other", Start: 200, End: 260},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 50, 2: 14, 3: 30, 4: 30, 5: 6, 6: 60} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	st := summarise(spans, func(s span) bool { return s.Parent == 1 })
	if st.count["a"] != 1 || st.total["b"] != 30 || st.meanUS("missing") != 0 {
		t.Errorf("summarise: %+v", st)
	}
}

func TestRecorder(t *testing.T) {
	r := newRecorder()
	req := r.newRequest()
	root := r.begin("root", 0, req)
	r.under(root, req)("child", func() { time.Sleep(time.Millisecond) })
	r.end(root)
	spans := r.all()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Request != req || spans[1].duration() < time.Millisecond {
		t.Fatalf("recorded %+v", spans)
	}
	if spans[0].End < spans[1].End {
		t.Errorf("root ends at %d, before its child at %d", spans[0].End, spans[1].End)
	}
}

// benchmarkFile is the part of BENCHMARK.json the catalogue must match.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestCatalogue(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]{1,64}", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %q is declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		if len(d.Unit) == 0 || len(d.Unit) > 16 {
			t.Errorf("metric %q: unit %q", d.Name, d.Unit)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside bench/: %v", err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) || len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the program has %d, %d and %d",
			len(f.Workloads), len(f.EndToEnd), len(f.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, f.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, at most 200", w.Name, len(w.Why))
		}
	}
	for i, d := range endToEnd {
		if g := f.EndToEnd[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, g, d)
		}
	}
	for i, d := range perLayer {
		if g := f.PerLayer[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, g, d)
		}
	}
}

func TestCollect(t *testing.T) {
	defs := []metricDef{{Name: "a", Unit: "ms"}, {Name: "b", Unit: "s"}}
	got, err := collect(defs, map[string]float64{"a": 1.5, "b": 2, "extra": 3})
	if err != nil || len(got) != 2 || got["a"] != (value{1.5, "ms"}) {
		t.Errorf("collect = %v, %v", got, err)
	}
	if _, err := collect(defs, map[string]float64{"a": 1}); err == nil {
		t.Error("collect accepted a catalogue metric without a measurement")
	}
}
