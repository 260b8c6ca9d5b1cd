package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/bench/layers"
)

// span is one timed call into a layer. Spans of one request share Request;
// Parent is the ID of the span that caused this one, 0 for a root. Times
// are nanoseconds since the recorder was created.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

func (s span) duration() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps the traced run's spans in memory until the run ends. The
// spans are taken by the benchmark around its calls into each layer; the
// program under test is not instrumented.
type recorder struct {
	epoch time.Time
	// on switches the HTTP middleware: off, requests pass straight through.
	on atomic.Bool

	mu       sync.Mutex
	spans    []span
	requests int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its ID; end closes it.
func (r *recorder) begin(name string, parent, request int) int {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Request: request, Name: name, Start: now})
	return id
}

func (r *recorder) end(id int) {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// newRequest returns the identifier the spans of one request share.
func (r *recorder) newRequest() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.requests++
	return r.requests
}

// under returns the span function layers' probes record through: each call
// becomes a child of parent.
func (r *recorder) under(parent, request int) layers.Span {
	return func(name string, call func()) {
		id := r.begin(name, parent, request)
		call()
		r.end(id)
	}
}

// Headers by which a traced client tells the middleware which request and
// which client span a handler span belongs to.
const (
	headerRequest = "X-Bench-Request"
	headerParent  = "X-Bench-Parent"
)

// middleware records one span around every request the handler serves:
// server.handler for queries, server.patch_handler for patches.
func (r *recorder) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			next.ServeHTTP(w, req)
			return
		}
		name := "server.handler"
		if req.URL.Path == "/v1/patch" {
			name = "server.patch_handler"
		}
		parent, _ := strconv.Atoi(req.Header.Get(headerParent))
		request, err := strconv.Atoi(req.Header.Get(headerRequest))
		if err != nil {
			request = r.newRequest()
		}
		id := r.begin(name, parent, request)
		next.ServeHTTP(w, req)
		r.end(id)
	})
}

// write stores the spans as JSON at path.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns, per span ID, the span's duration minus the part of it
// that its child spans cover. Children are clipped to the parent and
// overlapping children are counted once.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, upTo), min(k.End, s.End)
			if to > from {
				covered += to - from
				upTo = to
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// spanStats sums spans by name.
type spanStats struct {
	total map[string]time.Duration
	count map[string]int
}

// summarise totals the spans accepted by keep (nil keeps all).
func summarise(spans []span, keep func(span) bool) spanStats {
	st := spanStats{total: map[string]time.Duration{}, count: map[string]int{}}
	for _, s := range spans {
		if keep == nil || keep(s) {
			st.total[s.Name] += s.duration()
			st.count[s.Name]++
		}
	}
	return st
}

// meanUS is the mean duration of the named spans in microseconds, 0 when
// there are none.
func (st spanStats) meanUS(name string) float64 {
	if st.count[name] == 0 {
		return 0
	}
	return us(st.total[name]) / float64(st.count[name])
}

// all returns a copy of the spans recorded so far.
func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}
