package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	xmlvi "repro"
	"repro/bench/layers"
)

// docScale is the XMark scale every workload serves: about 3.9 MB of XML,
// 288k nodes and 33 MB resident, more than the box's cache share. There is
// no buffer pool; the whole document is resident.
const docScale = 4

// instance is one set-up: the durable document, served on a loopback
// listener by a bare http.Server, as cmd/xvid serves it.
type instance struct {
	dir      string
	snapshot string
	wal      string
	doc      *xmlvi.Document
	closer   io.Closer    // the server; closing it closes doc
	handler  http.Handler // the protocol handler, before any wrapping
	httpSrv  *http.Server
	served   chan error
	url      string
	client   *http.Client
	xmlBytes int
}

// setUp generates the document and brings it up for serving in dir:
// generate, parse with every index, build the substring index, save, reopen
// the pair durably (WAL fsync after every record), register it with the
// server, listen. wrap, when not nil, wraps the protocol handler (the
// traced run's span middleware). The returned duration is the set-up time
// a deployment pays.
func setUp(dir string, scale float64, seed int64, wrap func(http.Handler) http.Handler) (*instance, time.Duration, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	raw, err := layers.Generate(scale, seed)
	if err != nil {
		return nil, 0, err
	}
	in := &instance{
		dir:      dir,
		snapshot: filepath.Join(dir, "doc.xvi"),
		wal:      filepath.Join(dir, "doc.wal"),
		xmlBytes: len(raw),
	}
	if _, in.doc, err = buildDurable(raw, in.snapshot, in.wal); err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	handler, closer, err := layers.NewHandler("auction", in.doc, in.snapshot, in.wal)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: serve: %w", err)
	}
	in.closer, in.handler = closer, handler
	if wrap != nil {
		handler = wrap(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, errors.Join(err, closer.Close())
	}
	in.httpSrv = &http.Server{Handler: handler}
	in.served = make(chan error, 1)
	go func() { in.served <- in.httpSrv.Serve(ln) }()
	in.url = "http://" + ln.Addr().String()
	in.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 8,
		DisableCompression:  true,
	}}
	return in, time.Since(start), nil
}

// buildDurable parses raw with every index, builds the substring index,
// saves the snapshot and reopens the pair durably, with an fsync after
// every log record. It returns the in-memory build too: that document has
// no log, so its commits cost what a durable one's cost without the WAL.
func buildDurable(raw []byte, snapshot, wal string) (inMemory, durable *xmlvi.Document, err error) {
	if inMemory, err = xmlvi.ParseWithOptions(raw, xmlvi.Options{}); err != nil {
		return nil, nil, fmt.Errorf("parse: %w", err)
	}
	inMemory.EnableSubstringIndex()
	if err := inMemory.Save(snapshot); err != nil {
		return nil, nil, fmt.Errorf("save: %w", err)
	}
	durable, err = xmlvi.OpenDurableWithOptions(snapshot, wal, xmlvi.Options{WALSyncEvery: 1})
	if err != nil {
		return nil, nil, fmt.Errorf("open durable: %w", err)
	}
	return inMemory, durable, nil
}

// tearDown stops the listener and waits for it, closes the server and the
// document, and removes the instance's files.
func (in *instance) tearDown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := in.httpSrv.Shutdown(ctx)
	if serveErr := <-in.served; !errors.Is(serveErr, http.ErrServerClosed) {
		err = errors.Join(err, serveErr)
	}
	in.client.CloseIdleConnections()
	return errors.Join(err, in.closer.Close(), os.RemoveAll(in.dir))
}

// post sends one request body and returns the status and the open response
// body, which the caller drains and closes.
func (in *instance) post(path string, body []byte) (*http.Response, error) {
	return in.client.Post(in.url+path, "application/json", bytes.NewReader(body))
}

// tail is where structural patches go: fragments are appended to and
// removed from the end of the document's last element, newest first, so no
// other node id ever moves. Writers hold mu across a structural patch's
// round trip: the next one's node ids depend on this one's outcome.
type tail struct {
	mu       sync.Mutex
	parent   int32
	children int     // current child count of parent
	end      int32   // node id the next appended fragment gets
	inserted []int32 // fragments appended and not yet removed
}

func newTail(doc *xmlvi.Document, d *domain) *tail {
	last := xmlvi.Node(d.TailParent)
	for {
		kids := doc.Children(last)
		if len(kids) == 0 {
			break
		}
		last = kids[len(kids)-1]
	}
	return &tail{parent: d.TailParent, children: d.TailChildren, end: int32(last) + 1}
}

// fill completes a structural patch against the current tail. A delete
// with nothing left to delete inserts its spare fragment instead.
func (t *tail) fill(p *patchReq) {
	op := &p.Ops[0]
	if p.Kind == kindDelete && len(t.inserted) > 0 {
		node := t.inserted[len(t.inserted)-1]
		op.Node, op.XML = &node, ""
		return
	}
	p.Kind, op.Op = kindInsert, kindInsert
	parent := t.parent
	op.Node, op.Pos = &parent, t.children
}

// done records an acknowledged structural patch.
func (t *tail) done(kind string) {
	if kind == kindInsert {
		t.inserted = append(t.inserted, t.end)
		t.end += fragmentNodes
		t.children++
		return
	}
	t.inserted = t.inserted[:len(t.inserted)-1]
	t.end -= fragmentNodes
	t.children--
}

// acked remembers, per element, the newest acknowledged text: what must be
// readable after recovery.
type acked struct {
	mu      sync.Mutex
	version uint64
	last    map[int32]ackedValue
}

type ackedValue struct {
	version uint64
	value   string
}

func (a *acked) record(version uint64, p patchReq) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.version = max(a.version, version)
	if p.Kind != kindSetText {
		return
	}
	for _, op := range p.Ops {
		if a.last[*op.Node].version < version {
			a.last[*op.Node] = ackedValue{version, op.Value}
		}
	}
}

// sampleEvery is how often a reader decodes a response in full; the others
// are read to EOF and checked for status only, so that the generator's own
// cost stays small and constant.
const sampleEvery = 64

// readSample is one fully decoded response, kept for the oracle.
type readSample struct {
	req  *readReq
	resp queryResponse
}

// phaseSpec is one stretch of traffic.
type phaseSpec struct {
	readers     []*readStream
	writers     []*patchStream // closed loop
	paced       *patchStream   // open loop at pacedHz
	pacedHz     float64
	dur         time.Duration
	keepSamples bool
}

// phaseStats is what the clients of one phase observed.
type phaseStats struct {
	elapsed time.Duration
	// readRates and patchRates are the completions per second of each
	// slice of a sliced phase (see addSlice).
	readRates  []float64
	patchRates []float64
	readLat    []time.Duration // successful queries
	patchLat   []time.Duration // committed patches; paced ones from when they were due
	attempted  int
	failed     int
	samples    []readSample
	pacedSent  int
	pacedLate  int // paced patches sent more than lateAfter behind schedule
	errs       []string
}

const lateAfter = time.Millisecond

func (s *phaseStats) fail(format string, args ...any) {
	s.failed++
	if len(s.errs) < 5 {
		s.errs = append(s.errs, fmt.Sprintf(format, args...))
	}
}

func (s *phaseStats) merge(o *phaseStats) {
	s.readLat = append(s.readLat, o.readLat...)
	s.patchLat = append(s.patchLat, o.patchLat...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.samples = append(s.samples, o.samples...)
	s.pacedSent += o.pacedSent
	s.pacedLate += o.pacedLate
	s.errs = append(s.errs, o.errs...)
}

// traffic is the state the clients of one instance share across phases.
type traffic struct {
	in    *instance
	tail  *tail
	acked *acked
}

func newTraffic(in *instance, d *domain) *traffic {
	return &traffic{in: in, tail: newTail(in.doc, d), acked: &acked{version: in.doc.Version(), last: map[int32]ackedValue{}}}
}

// run drives one phase to its end and returns what every client saw. Each
// client is one goroutine with its own keep-alive connection.
func (t *traffic) run(spec phaseSpec) *phaseStats {
	start := time.Now()
	deadline := start.Add(spec.dur)
	n := len(spec.readers) + len(spec.writers)
	if spec.paced != nil {
		n++
	}
	parts := make([]*phaseStats, 0, n)
	var wg sync.WaitGroup
	launch := func(client func(*phaseStats)) {
		st := &phaseStats{}
		parts = append(parts, st)
		wg.Add(1)
		go func() {
			defer wg.Done()
			client(st)
		}()
	}
	for _, r := range spec.readers {
		launch(func(st *phaseStats) { t.reader(r, deadline, spec.keepSamples, st) })
	}
	for _, w := range spec.writers {
		launch(func(st *phaseStats) {
			for time.Now().Before(deadline) {
				t.patch(w.next(), time.Time{}, st)
			}
		})
	}
	if spec.paced != nil {
		launch(func(st *phaseStats) { t.pacedWriter(spec.paced, spec.pacedHz, start, deadline, st) })
	}
	wg.Wait()
	total := &phaseStats{elapsed: time.Since(start)}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// addSlice merges one slice of a sliced phase into s and notes its rates.
// The median slice rate is what a run reports as throughput: a burst of
// interference from outside the process spoils one slice, not the run.
func (s *phaseStats) addSlice(o *phaseStats) {
	s.merge(o)
	s.elapsed += o.elapsed
	s.readRates = append(s.readRates, float64(len(o.readLat))/o.elapsed.Seconds())
	s.patchRates = append(s.patchRates, float64(len(o.patchLat))/o.elapsed.Seconds())
}

func (t *traffic) reader(stream *readStream, deadline time.Time, keep bool, st *phaseStats) {
	for i := 0; time.Now().Before(deadline); i++ {
		t.read(stream.next(), i%sampleEvery == 0, keep, st)
	}
}

// read sends one query. Every response is read to EOF and its status
// checked; decode additionally parses the body.
func (t *traffic) read(req *readReq, decode, keep bool, st *phaseStats) {
	st.attempted++
	start := time.Now()
	resp, err := t.in.post("/v1/query", req.Body)
	if err != nil {
		st.fail("query %s: %v", req.Query, err)
		return
	}
	var body []byte
	if decode {
		body, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	end := time.Now()
	if err != nil || resp.StatusCode != http.StatusOK {
		st.fail("query %s: status %d, %v", req.Query, resp.StatusCode, err)
		return
	}
	st.readLat = append(st.readLat, end.Sub(start))
	if !decode {
		return
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		st.fail("query %s: undecodable response: %v", req.Query, err)
		return
	}
	if want := min(qr.Count, resultLimit); len(qr.Results) != want || qr.Truncated != (qr.Count > resultLimit) {
		st.fail("query %s: count %d but %d results, truncated=%v", req.Query, qr.Count, len(qr.Results), qr.Truncated)
		return
	}
	if keep {
		st.samples = append(st.samples, readSample{req, qr})
	}
}

// patch sends one patch and waits for its commit. A zero due means a
// closed loop, timed from the send; otherwise the patch is timed from when
// it was due.
func (t *traffic) patch(p patchReq, due time.Time, st *phaseStats) {
	st.attempted++
	if p.Kind == kindInsert || p.Kind == kindDelete {
		t.tail.mu.Lock()
		defer t.tail.mu.Unlock()
		t.tail.fill(&p)
	}
	body, err := json.Marshal(patchRequest{Ops: p.Ops})
	if err != nil {
		st.fail("patch %s: %v", p.Kind, err)
		return
	}
	start := time.Now()
	if due.IsZero() {
		due = start
	}
	resp, err := t.in.post("/v1/patch", body)
	if err != nil {
		st.fail("patch %s: %v", p.Kind, err)
		return
	}
	answer, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if err != nil || resp.StatusCode != http.StatusOK {
		st.fail("patch %s: status %d, %v: %s", p.Kind, resp.StatusCode, err, bytes.TrimSpace(answer))
		return
	}
	var pr patchResponse
	if err := json.Unmarshal(answer, &pr); err != nil || pr.Ops != len(p.Ops) || pr.Version == 0 {
		st.fail("patch %s: bad acknowledgement %s: %v", p.Kind, bytes.TrimSpace(answer), err)
		return
	}
	st.patchLat = append(st.patchLat, end.Sub(due))
	t.acked.record(uint64(pr.Version), p)
	if p.Kind == kindInsert || p.Kind == kindDelete {
		t.tail.done(p.Kind)
	}
}

// pacedWriter is the open loop: patch i is due at start + i/hz whatever
// the server does, and is sent as soon after as the one connection allows.
func (t *traffic) pacedWriter(stream *patchStream, hz float64, start, deadline time.Time, st *phaseStats) {
	for i := 0; ; i++ {
		due := dueTime(start, i, hz)
		if !due.Before(deadline) {
			return
		}
		time.Sleep(time.Until(due))
		st.pacedSent++
		if time.Since(due) > lateAfter {
			st.pacedLate++
		}
		t.patch(stream.next(), due, st)
	}
}
