// Command xviload drives mixed read/write/watch traffic against a
// running xvid server, or a leader and its follower, and prints one
// summary line of key=value fields: ops, qps, read_p50_ms, read_p99_ms,
// patch_p50_ms, patch_p99_ms, lag_p50_ms and lag_p99_ms (with -follower
// only), watch_events and errors.
//
// It is a smoke and a probe, not the benchmark: bench/ measures the
// served traffic, and scripts/ab.sh compares two revisions through it.
// What xviload adds is a live server's watch-ordering check and, with
// -follower, the replica lag: the time from a patch on the leader until
// the follower answers at its version.
//
// The generated load is readers issuing XPath queries, writers issuing
// set_text patch batches against nodes discovered by an initial query,
// and watchers tailing the committed-change stream. Watchers verify the
// protocol's ordering contract while they consume: every change event
// must carry exactly the previous version + 1 — a gap, duplicate, or
// reordering counts as an error and fails the run. The exit status is
// 1 on any request error or when nothing completed, 2 when the server
// is not up or the write query matches nothing, and 3 on an ordering
// violation.
//
// Usage:
//
//	xviload -addr http://127.0.0.1:8080 -readers 8 -writers 1 -watchers 2 -duration 10s
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

type config struct {
	addr     string
	follower string
	doc      string
	duration time.Duration
	readers  int
	writers  int
	watchers int
	queries  []string
	writeQ   string
	batch    int
}

// readAddr is where reads, watches, and the lag probe go: the follower
// when one is configured, the (leader) addr otherwise. Writes and
// write-target discovery always go to the leader.
func (c config) readAddr() string {
	if c.follower != "" {
		return c.follower
	}
	return c.addr
}

// collector accumulates latencies and errors across workers.
type collector struct {
	mu          sync.Mutex
	readNS      []float64
	patchNS     []float64
	lagNS       []float64
	errs        []string
	watchEvents int
	// violations counts ordering-contract breaches observed by watchers
	// (gap, duplicate, or reordering) — tracked apart from errs so a
	// violation can never be masked, and reported with its own exit code.
	violations int
}

func (c *collector) read(d time.Duration) {
	c.mu.Lock()
	c.readNS = append(c.readNS, float64(d))
	c.mu.Unlock()
}
func (c *collector) patch(d time.Duration) {
	c.mu.Lock()
	c.patchNS = append(c.patchNS, float64(d))
	c.mu.Unlock()
}
func (c *collector) event() { c.mu.Lock(); c.watchEvents++; c.mu.Unlock() }

func (c *collector) lag(d time.Duration) {
	c.mu.Lock()
	c.lagNS = append(c.lagNS, float64(d))
	c.mu.Unlock()
}

func (c *collector) violation(format string, args ...any) {
	c.mu.Lock()
	c.violations++
	c.mu.Unlock()
	c.errorf(format, args...)
}

func (c *collector) errorf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.errs) < 20 { // keep the report readable
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	} else {
		c.errs[19] = "... more errors suppressed"
	}
}

func main() {
	cfg := config{}
	var queries string
	flag.StringVar(&cfg.addr, "addr", "http://127.0.0.1:8080", "xvid base URL (the leader: all patches go here)")
	flag.StringVar(&cfg.follower, "follower", "", "follower replica base URL: reads and watches go here, and a lag probe measures patch-to-follower-visible latency")
	flag.StringVar(&cfg.doc, "doc", "", "document name (optional with a single served document)")
	flag.DurationVar(&cfg.duration, "duration", 10*time.Second, "how long to drive traffic")
	flag.IntVar(&cfg.readers, "readers", 8, "concurrent query workers")
	flag.IntVar(&cfg.writers, "writers", 1, "concurrent patch workers")
	flag.IntVar(&cfg.watchers, "watchers", 2, "concurrent WATCH streams")
	flag.StringVar(&queries, "queries", `//item[quantity = 7];//open_auction[initial > 4950];//quantity[. = 3];//person[contains(emailaddress/text(), "mailto:a")];//person[starts-with(@id, "person12")]`, "read queries, ';'-separated (text predicates answer through the substring index when the server enables it)")
	flag.StringVar(&cfg.writeQ, "write-query", `//quantity[. = 3]`, "query discovering set_text targets (elements with one text child)")
	flag.IntVar(&cfg.batch, "batch", 8, "set_text ops per patch (one commit each)")
	flag.Parse()
	cfg.queries = strings.Split(queries, ";")

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: cfg.readers + cfg.writers + cfg.watchers + 2,
	}}
	col := &collector{}

	// Health check and write-target discovery happen before the clock
	// starts; a server that is not up is a usage error, not a result.
	if err := waitHealthy(client, cfg.addr, 5*time.Second); err != nil {
		fmt.Fprintln(os.Stderr, "xviload:", err)
		os.Exit(2)
	}
	if cfg.follower != "" {
		if err := waitHealthy(client, cfg.follower, 5*time.Second); err != nil {
			fmt.Fprintln(os.Stderr, "xviload:", err)
			os.Exit(2)
		}
	}
	targets, err := discoverTargets(client, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xviload:", err)
		os.Exit(2)
	}
	if cfg.writers > 0 && len(targets) == 0 {
		fmt.Fprintf(os.Stderr, "xviload: write query %q matched nothing; use -write-query\n", cfg.writeQ)
		os.Exit(2)
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.duration)
	defer cancel()
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.watchers; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); watchWorker(ctx, client, cfg, col) }()
	}
	for i := 0; i < cfg.readers; i++ {
		wg.Add(1)
		go func(id int) { defer wg.Done(); readWorker(ctx, client, cfg, col, id) }(i)
	}
	for i := 0; i < cfg.writers; i++ {
		wg.Add(1)
		go func(id int) { defer wg.Done(); writeWorker(ctx, client, cfg, col, targets, id) }(i)
	}
	if cfg.follower != "" && len(targets) > 0 {
		wg.Add(1)
		go func() { defer wg.Done(); lagProbe(ctx, client, cfg, col, targets) }()
	}
	wg.Wait()
	elapsed := time.Since(start)

	col.mu.Lock()
	defer col.mu.Unlock()
	ops := len(col.readNS) + len(col.patchNS)
	if ops == 0 {
		fmt.Fprintln(os.Stderr, "xviload: no operations completed")
		os.Exit(1)
	}
	line := fmt.Sprintf("ops=%d qps=%.1f read_p50_ms=%.3f read_p99_ms=%.3f patch_p50_ms=%.3f patch_p99_ms=%.3f",
		ops, float64(ops)/elapsed.Seconds(),
		percentile(col.readNS, 50)/1e6, percentile(col.readNS, 99)/1e6,
		percentile(col.patchNS, 50)/1e6, percentile(col.patchNS, 99)/1e6)
	if len(col.lagNS) > 0 {
		line += fmt.Sprintf(" lag_p50_ms=%.3f lag_p99_ms=%.3f",
			percentile(col.lagNS, 50)/1e6, percentile(col.lagNS, 99)/1e6)
	}
	fmt.Printf("%s watch_events=%d errors=%d\n", line, col.watchEvents, len(col.errs))
	for _, e := range col.errs {
		fmt.Fprintln(os.Stderr, "xviload: error:", e)
	}
	// A watcher-observed ordering violation is the worst outcome a run
	// can produce — it means the committed-change stream broke its
	// contract — and gets its own exit code so wrappers can tell it from
	// ordinary request errors.
	if col.violations > 0 {
		fmt.Fprintf(os.Stderr, "xviload: %d ordering violation(s) observed\n", col.violations)
		os.Exit(3)
	}
	if len(col.errs) > 0 {
		os.Exit(1)
	}
}

func waitHealthy(client *http.Client, addr string, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for {
		resp, err := client.Get(addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("server at %s not healthy: %w", addr, err)
			}
			return fmt.Errorf("server at %s not healthy", addr)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// wire types, mirroring internal/server (kept local: xviload speaks the
// public protocol, not the server's internals).
type queryReq struct {
	Doc        string `json:"doc,omitempty"`
	Query      string `json:"query"`
	Limit      int    `json:"limit,omitempty"`
	MinVersion uint64 `json:"min_version,omitempty"`
}
type resultItem struct {
	Node int32 `json:"node"`
}
type queryResp struct {
	Version string       `json:"version"`
	Count   int          `json:"count"`
	Results []resultItem `json:"results"`
}
type patchOp struct {
	Op    string `json:"op"`
	Node  *int32 `json:"node,omitempty"`
	Value string `json:"value,omitempty"`
}
type patchReq struct {
	Doc string    `json:"doc,omitempty"`
	Ops []patchOp `json:"ops"`
}
type patchResp struct {
	Version string `json:"version"`
}

func post(ctx context.Context, client *http.Client, url string, body, out any) (int, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(data))
	}
	if out != nil {
		return resp.StatusCode, json.Unmarshal(data, out)
	}
	return resp.StatusCode, nil
}

// discoverTargets runs the write query once and returns the matched
// node ids — the set_text targets the writers cycle through.
func discoverTargets(client *http.Client, cfg config) ([]int32, error) {
	if cfg.writers == 0 {
		return nil, nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var out queryResp
	if _, err := post(ctx, client, cfg.addr+"/v1/query",
		queryReq{Doc: cfg.doc, Query: cfg.writeQ, Limit: 4096}, &out); err != nil {
		return nil, fmt.Errorf("write-target discovery: %w", err)
	}
	nodes := make([]int32, len(out.Results))
	for i, r := range out.Results {
		nodes[i] = r.Node
	}
	return nodes, nil
}

func readWorker(ctx context.Context, client *http.Client, cfg config, col *collector, id int) {
	for i := id; ctx.Err() == nil; i++ {
		q := cfg.queries[i%len(cfg.queries)]
		start := time.Now()
		var out queryResp
		status, err := post(ctx, client, cfg.readAddr()+"/v1/query", queryReq{Doc: cfg.doc, Query: q, Limit: 1}, &out)
		if ctx.Err() != nil {
			return
		}
		if err != nil {
			col.errorf("reader %d: query %q: status %d: %v", id, q, status, err)
			return
		}
		col.read(time.Since(start))
	}
}

func writeWorker(ctx context.Context, client *http.Client, cfg config, col *collector, targets []int32, id int) {
	// Each writer rewrites the discovered leaves with their matching
	// value: a real commit per patch, a stable result set for readers.
	value := lastLiteral(cfg.writeQ)
	next := id
	for ctx.Err() == nil {
		ops := make([]patchOp, 0, cfg.batch)
		for len(ops) < cfg.batch {
			n := targets[next%len(targets)]
			next++
			ops = append(ops, patchOp{Op: "set_text", Node: &n, Value: value})
		}
		start := time.Now()
		status, err := post(ctx, client, cfg.addr+"/v1/patch", patchReq{Doc: cfg.doc, Ops: ops}, nil)
		if ctx.Err() != nil {
			return
		}
		if err != nil {
			col.errorf("writer %d: patch: status %d: %v", id, status, err)
			return
		}
		col.patch(time.Since(start))
	}
}

// lagProbe measures end-to-end replication lag: patch the leader, then
// query the follower with min_version set to the patch's token — the
// elapsed time until the follower answers is how long the commit took to
// become visible on the replica (read-your-writes across the pair).
func lagProbe(ctx context.Context, client *http.Client, cfg config, col *collector, targets []int32) {
	value := lastLiteral(cfg.writeQ)
	n := targets[len(targets)-1]
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for ctx.Err() == nil {
		start := time.Now()
		var pr patchResp
		status, err := post(ctx, client, cfg.addr+"/v1/patch",
			patchReq{Doc: cfg.doc, Ops: []patchOp{{Op: "set_text", Node: &n, Value: value}}}, &pr)
		if ctx.Err() != nil {
			return
		}
		if err != nil {
			col.errorf("lag probe: patch: status %d: %v", status, err)
			return
		}
		var v uint64
		fmt.Sscanf(pr.Version, "%d", &v) //nolint:errcheck
		status, err = post(ctx, client, cfg.follower+"/v1/query",
			queryReq{Doc: cfg.doc, Query: cfg.queries[0], Limit: 1, MinVersion: v}, nil)
		if ctx.Err() != nil {
			return
		}
		if err != nil {
			col.errorf("lag probe: follower query (min_version %d): status %d: %v", v, status, err)
			return
		}
		col.lag(time.Since(start))
		select {
		case <-tick.C:
		case <-ctx.Done():
			return
		}
	}
}

// lastLiteral pulls the comparison literal out of the write query (the
// value to write back), defaulting to "3".
func lastLiteral(q string) string {
	if i := strings.LastIndexByte(q, '='); i >= 0 {
		v := strings.Trim(strings.TrimSuffix(strings.TrimSpace(q[i+1:]), "]"), ` "'`)
		if v != "" {
			return v
		}
	}
	return "3"
}

// watchWorker tails the change stream and verifies the ordering
// contract: consecutive versions, no duplicates, no gaps.
func watchWorker(ctx context.Context, client *http.Client, cfg config, col *collector) {
	url := cfg.readAddr() + "/v1/watch"
	if cfg.doc != "" {
		url += "?doc=" + cfg.doc
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		col.errorf("watcher: %v", err)
		return
	}
	resp, err := client.Do(req)
	if err != nil {
		col.errorf("watcher: connect: %v", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		col.errorf("watcher: connect: %s", resp.Status)
		return
	}
	var last uint64
	haveLast := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "hello":
				var hello struct {
					Version string `json:"version"`
				}
				if err := json.Unmarshal([]byte(data), &hello); err == nil {
					fmt.Sscanf(hello.Version, "%d", &last) //nolint:errcheck
					haveLast = true
				}
			case "change":
				var ev struct {
					Version string `json:"version"`
				}
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					col.errorf("watcher: bad change event %q: %v", data, err)
					return
				}
				var v uint64
				fmt.Sscanf(ev.Version, "%d", &v) //nolint:errcheck
				if haveLast && v != last+1 {
					col.violation("watcher: ordering violation: version %d after %d", v, last)
					return
				}
				last, haveLast = v, true
				col.event()
			case "error":
				col.errorf("watcher: stream error: %s", data)
				return
			}
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil && !errors.Is(err, io.EOF) {
		col.errorf("watcher: stream: %v", err)
	}
}

// percentile returns the p-th percentile of values (ns), 0 when empty.
func percentile(values []float64, p int) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	idx := (len(sorted)*p + 99) / 100
	if idx > 0 {
		idx--
	}
	return sorted[idx]
}
