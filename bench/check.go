package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	xmlvi "repro"
)

// Correctness. Everything here feeds the run's attempted/failed counts: a
// wrong answer fails the run exactly as a refused connection does.

// checks accumulates the outcome of the post-window verifications.
type checks struct {
	attempted int
	failed    int
	errs      []string
}

func (c *checks) fail(format string, args ...any) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// oracleCap bounds the distinct queries the scan oracle evaluates for one
// slice's samples: a scan of the served document takes milliseconds, and
// the Zipf skew means the first distinct queries cover most samples.
const oracleCap = 100

// sameHits reports whether a served response lists exactly the hits the
// scan oracle found: the same count and, up to the serialisation limit,
// the same nodes in the same order.
func sameHits(resp queryResponse, want []xmlvi.Result) bool {
	if resp.Count != len(want) || len(resp.Results) != min(len(want), resultLimit) {
		return false
	}
	for i, got := range resp.Results {
		w := want[i]
		if got.IsAttr != w.IsAttr {
			return false
		}
		if w.IsAttr && got.Attr != int32(w.Attr) || !w.IsAttr && got.Node != int32(w.Node) {
			return false
		}
	}
	return true
}

// verifySamples compares the sampled responses of a read-only window with
// QueryScan on the same, unchanged, document. It returns how many samples
// went unchecked because of oracleCap.
func (c *checks) verifySamples(doc *xmlvi.Document, samples []readSample) (skipped int) {
	oracle := map[string][]xmlvi.Result{}
	for _, s := range samples {
		want, ok := oracle[s.req.Query]
		if !ok {
			if len(oracle) == oracleCap {
				skipped++
				continue
			}
			var err error
			if want, err = doc.QueryScan(s.req.Query); err != nil {
				c.attempted++
				c.fail("oracle %s: %v", s.req.Query, err)
				continue
			}
			oracle[s.req.Query] = want
		}
		c.attempted++
		if !sameHits(s.resp, want) {
			c.fail("%s: served %d hits at version %d, scan finds %d", s.req.Query, s.resp.Count, s.resp.Version, len(want))
		}
	}
	return skipped
}

const (
	finalComparisons = 50  // served-vs-scan comparisons on the final state
	recoveredValues  = 200 // acknowledged values read back after recovery
	recoveryTail     = 50  // patches committed after the checkpoint, replayed by recovery
)

// verifyFinal checks the state the run leaves behind, once all clients
// have stopped: the indexes verify against the document, the server still
// answers as the scan oracle does, and the snapshot+WAL pair on disk
// recovers to the last acknowledged version with the acknowledged values
// in place.
//
// Recovery replays the log one commit at a time, about 10 ms each at this
// document size, so the pair is checkpointed first and tail commits a
// fixed number of patches after it: recovery then reads the run's state
// from the snapshot and replays recoveryTail records, whatever the
// workload wrote. It closes the instance's document and leaves tearing the
// rest down to the caller.
func (c *checks) verifyFinal(t *traffic, queries []*readReq, tail *patchStream) {
	in := t.in
	c.attempted++
	if err := in.doc.Verify(); err != nil {
		c.fail("Verify after the run: %v", err)
	}
	// Evenly spaced over the list, so that every template is compared.
	for i := 0; i < len(queries); i += max(len(queries)/finalComparisons, 1) {
		req := queries[i]
		c.attempted++
		resp, err := in.post("/v1/query", req.Body)
		if err != nil {
			c.fail("final query %s: %v", req.Query, err)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		var qr queryResponse
		if err == nil && resp.StatusCode == http.StatusOK {
			err = json.Unmarshal(body, &qr)
		}
		if err != nil || resp.StatusCode != http.StatusOK {
			c.fail("final query %s: status %d, %v", req.Query, resp.StatusCode, err)
			continue
		}
		want, err := in.doc.QueryScan(req.Query)
		if err != nil || !sameHits(qr, want) {
			c.fail("final query %s: served %d hits, scan finds %d (%v)", req.Query, qr.Count, len(want), err)
		}
	}

	c.attempted++
	if err := in.doc.Checkpoint(); err != nil {
		c.fail("checkpoint: %v", err)
	}
	var st phaseStats
	for i := 0; i < recoveryTail; i++ {
		t.patch(tail.next(), time.Time{}, &st)
	}
	c.attempted += st.attempted
	c.failed += st.failed
	c.errs = append(c.errs, st.errs...)

	final := in.doc.Version()
	c.attempted++
	if err := in.doc.Close(); err != nil {
		c.fail("close: %v", err)
	}
	reopened, err := xmlvi.OpenDurable(in.snapshot, in.wal)
	if err != nil {
		c.fail("reopen: %v", err)
		return
	}
	defer reopened.Close()
	t.acked.mu.Lock()
	defer t.acked.mu.Unlock()
	if got := reopened.Version(); got != final || t.acked.version != final {
		c.fail("recovered version %d, served version %d, last acknowledged %d", got, final, t.acked.version)
	}
	nodes := make([]int32, 0, len(t.acked.last))
	for n := range t.acked.last {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	step := max(len(nodes)/recoveredValues, 1)
	for i := 0; i < len(nodes); i += step {
		c.attempted++
		want := t.acked.last[nodes[i]]
		if got := reopened.StringValue(xmlvi.Node(nodes[i])); got != want.value {
			c.fail("node %d after recovery: %q, acknowledged %q at version %d", nodes[i], got, want.value, want.version)
		}
	}
}
