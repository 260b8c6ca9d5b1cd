package server_test

// Tests for the replication-facing protocol surface: point-in-time
// queries (?version=N), payload-carrying WATCH streams, the /v1/snapshot
// seed endpoint, and the follower serving mode (read-only, lag-reporting).

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	xmlvi "repro"
	"repro/internal/server"
)

// newDurableServer serves siteXML from a durable snapshot/WAL pair with
// point-in-time queries enabled.
func newDurableServer(t *testing.T) (*httptest.Server, *xmlvi.Document) {
	t.Helper()
	dir := t.TempDir()
	snap := filepath.Join(dir, "site.xvi")
	wal := filepath.Join(dir, "site.wal")
	d, err := xmlvi.ParseWithOptions([]byte(siteXML), xmlvi.Options{StripWhitespace: true, WAL: wal})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Save(snap); err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{})
	if err := srv.AddDocumentWithOptions("site", d,
		server.DocOptions{SnapshotPath: snap, WALPath: wal}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	return ts, d
}

// queryAt posts a query with the ?version=N point-in-time parameter.
func queryAt(t *testing.T, ts *httptest.Server, version uint64, req server.QueryRequest) (server.QueryResponse, int, string) {
	t.Helper()
	var raw json.RawMessage
	code := call(t, fmt.Sprintf("%s/v1/query?version=%d", ts.URL, version), req, &raw)
	if code != http.StatusOK {
		var e server.ErrorBody
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatalf("decode error body %s: %v", raw, err)
		}
		return server.QueryResponse{}, code, e.Error.Code
	}
	var out server.QueryResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out, code, ""
}

func TestPointInTimeQuery(t *testing.T) {
	ts, _ := newDurableServer(t)

	// Three commits rewriting the same quantity: 3 → 11 → 12 → 13. Each
	// version is a distinct historical state.
	target := query(t, ts, server.QueryRequest{Query: `//quantity[. = 3]`})
	if target.Count != 1 {
		t.Fatalf("setup query: %+v", target)
	}
	node := target.Results[0].Node
	for i := 0; i < 3; i++ {
		patch(t, ts, server.PatchRequest{Ops: []server.PatchOp{
			{Op: "set_text", Node: p32(node), Value: strconv.Itoa(11 + i)},
		}})
	}

	// Version 1 (the seed) still answers 3; version 3 answers 12.
	for _, tc := range []struct {
		version uint64
		want    string
	}{{1, "3"}, {2, "11"}, {3, "12"}, {4, "13"}} {
		out, code, _ := queryAt(t, ts, tc.version, server.QueryRequest{Query: `//item[@id = "i1"]/quantity`})
		if code != http.StatusOK {
			t.Fatalf("version %d: status %d", tc.version, code)
		}
		if out.AsOf != server.Token(tc.version) || out.Version != server.Token(tc.version) {
			t.Errorf("version %d: as_of %v, version %v", tc.version, out.AsOf, out.Version)
		}
		if len(out.Results) != 1 || out.Results[0].Value != tc.want {
			t.Errorf("version %d: got %+v, want quantity %s", tc.version, out.Results, tc.want)
		}
	}

	// Outside the durable window: future versions are typed 404s.
	if _, code, ec := queryAt(t, ts, 99, server.QueryRequest{Query: `//quantity`}); code != http.StatusNotFound || ec != server.CodeVersionFuture {
		t.Errorf("future version: status %d code %q, want 404 %q", code, ec, server.CodeVersionFuture)
	}

	// A document served without a durable pair has no history to open.
	mem, _ := newTestServer(t, server.Config{}, map[string]string{"site": siteXML})
	if _, code, ec := queryAt(t, mem, 1, server.QueryRequest{Query: `//quantity`}); code != http.StatusUnprocessableEntity || ec != server.CodeNoHistory {
		t.Errorf("no history: status %d code %q, want 422 %q", code, ec, server.CodeNoHistory)
	}
}

func TestWatchPayload(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{}, map[string]string{"site": siteXML})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	ch, resp := openWatch(ctx, t, ts, "?doc=site&payload=1")
	if ch == nil {
		t.Fatalf("watch: status %d", resp.StatusCode)
	}
	target := query(t, ts, server.QueryRequest{Query: `//quantity[. = 3]`})
	patch(t, ts, server.PatchRequest{Ops: []server.PatchOp{
		{Op: "set_text", Node: p32(target.Results[0].Node), Value: "42"},
	}})

	for {
		select {
		case ev := <-ch:
			if ev.event != "change" {
				continue // hello first
			}
			var change server.WatchEvent
			if err := json.Unmarshal([]byte(ev.data), &change); err != nil {
				t.Fatalf("decode change %q: %v", ev.data, err)
			}
			if change.Version != 2 || change.Kind != xmlvi.ChangeTexts || !strings.Contains(ev.data, `"kind":"texts"`) {
				t.Fatalf("unexpected change %+v", change)
			}
			payload, err := base64.StdEncoding.DecodeString(change.Payload)
			if err != nil || len(payload) == 0 {
				t.Fatalf("change payload %q: decoded %d bytes, err %v", change.Payload, len(payload), err)
			}
			return
		case <-ctx.Done():
			t.Fatal("no change event arrived")
		}
	}
}

func TestSnapshotEndpoint(t *testing.T) {
	ts, _ := newDurableServer(t)
	target := query(t, ts, server.QueryRequest{Query: `//quantity[. = 3]`})
	patch(t, ts, server.PatchRequest{Ops: []server.PatchOp{
		{Op: "set_text", Node: p32(target.Results[0].Node), Value: "99"},
	}})

	resp, err := http.Get(ts.URL + "/v1/snapshot?doc=site")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d", resp.StatusCode)
	}
	if v := resp.Header.Get("X-Xvid-Version"); v != "2" {
		t.Fatalf("snapshot version header %q, want 2", v)
	}
	path := filepath.Join(t.TempDir(), "seed.xvi")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	f.Close()

	seeded, err := xmlvi.Load(path)
	if err != nil {
		t.Fatalf("load fetched snapshot: %v", err)
	}
	if seeded.Version() != 2 {
		t.Errorf("seeded version %d, want 2", seeded.Version())
	}
	res, err := seeded.Query(`//item[@id = "i1"]/quantity`)
	if err != nil || len(res) != 1 || res[0].Value() != "99" {
		t.Errorf("seeded state: %v (err %v), want quantity 99", res, err)
	}
}

// stubFollower serves a fixed document as a replica lagging 2 versions
// behind its imaginary leader.
type stubFollower struct{ doc *xmlvi.Document }

func (s *stubFollower) Document() *xmlvi.Document      { return s.doc }
func (s *stubFollower) LeaderSeen() uint64             { return s.doc.Version() + 2 }
func (s *stubFollower) OnCommit(fn func(xmlvi.Change)) { s.doc.OnCommit(fn) }

func TestFollowerServing(t *testing.T) {
	d, err := xmlvi.ParseWithOptions([]byte(siteXML), xmlvi.Options{StripWhitespace: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{})
	if err := srv.AddFollower("site", &stubFollower{doc: d}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})

	// Queries answer with replica lag attached.
	out := query(t, ts, server.QueryRequest{Query: `//item[location = "Oslo"]`})
	if out.Replica == nil || out.Replica.Lag != 2 || out.Replica.LeaderVersion != 3 {
		t.Fatalf("replica info %+v, want lag 2 behind leader version 3", out.Replica)
	}

	// Patches are rejected: replicas are read-only.
	var e server.ErrorBody
	code := call(t, ts.URL+"/v1/patch", server.PatchRequest{Ops: []server.PatchOp{
		{Op: "set_text", Node: p32(1), Value: "x"},
	}}, &e)
	if code != http.StatusForbidden || e.Error.Code != server.CodeReadOnly {
		t.Fatalf("patch on follower: status %d code %q, want 403 %q", code, e.Error.Code, server.CodeReadOnly)
	}

	// Stats report the role and replication position.
	var stats server.StatsResponse
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	ds := stats.Docs["site"]
	if ds.Role != "follower" || ds.Replica == nil || ds.Replica.Lag != 2 {
		t.Fatalf("stats %+v, want follower role with lag 2", ds)
	}
}
