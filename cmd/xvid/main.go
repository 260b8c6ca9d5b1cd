// Command xvid serves one or more indexed XML documents over the
// HTTP/JSON protocol in internal/server: POST /v1/query (XPath with
// optional explain, ?version=N point-in-time reads), POST /v1/patch (a
// transactional update batch that commits as exactly one write-ahead-log
// record and returns the published version token), GET /v1/watch (a
// resumable server-sent-event stream of committed changes, ?payload=1
// for log shipping), GET /v1/snapshot (a seed snapshot of the current
// version), GET /v1/stats, and GET /healthz.
//
// Each -doc flag serves one document under a name. The source after
// `name=` selects how it is opened:
//
//	auction=auction.xvi+auction.wal   durable: OpenDurable (snapshot + WAL)
//	auction=auction.xvi               snapshot only: Load (updates not logged)
//	auction=auction.xml               parse the XML file, in memory
//	auction=gen:xmark1:0.05           generate a dataset, in memory
//
// With -follow the process is a follower replica instead: it seeds
// itself from the leader, subscribes to its WATCH stream with shipped
// WAL payloads, applies every committed record at the matching version
// boundary, and serves the same read API (queries report replication
// lag; patches are rejected with read_only). -state makes the follower
// durable — it keeps its own snapshot/WAL pair per document and resumes
// from it across restarts.
//
// Usage:
//
//	xvid -listen :8080 -doc auction=auction.xvi+auction.wal
//	xvid -doc a=gen:xmark1:0.02 -doc b=catalog.xml -planner auto
//	xvid -listen :8081 -follow http://leader:8080 -state /var/lib/xvid
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	xmlvi "repro"
	"repro/internal/datagen"
	"repro/internal/replica"
	"repro/internal/server"
)

// docFlags collects repeated -doc name=source flags.
type docFlags []string

func (f *docFlags) String() string     { return strings.Join(*f, ", ") }
func (f *docFlags) Set(s string) error { *f = append(*f, s); return nil }

func main() {
	var docs docFlags
	flag.Var(&docs, "doc", "serve a document: name=snap.xvi+wal.log | name=snap.xvi | name=file.xml | name=gen:dataset:scale (repeatable); with -follow, names a leader document to follow")
	listen := flag.String("listen", "127.0.0.1:8080", "address to serve on")
	planner := flag.String("planner", "auto", "query planning mode: auto, scan, index")
	substring := flag.Bool("substring", false, "enable the q-gram substring index on served documents (contains()/starts-with() answer through the planner)")
	retention := flag.Int("watch-retention", server.DefaultWatchRetention, "committed changes buffered per document for WATCH resume")
	follow := flag.String("follow", "", "follow a leader server at this base URL (serve read-only replicas of its documents)")
	stateDir := flag.String("state", "", "with -follow: directory for durable follower state (one snapshot+WAL pair per document)")
	syncEvery := flag.Int("wal-sync-every", 0, "with -follow -state: batch follower log fsyncs (0 = every record)")
	flag.Parse()
	if len(docs) == 0 && *follow == "" {
		fmt.Fprintln(os.Stderr, "usage: xvid -listen addr -doc name=source [-doc name=source ...]\n       xvid -listen addr -follow http://leader:port [-state dir] [-doc name ...]")
		os.Exit(2)
	}
	mode, err := xmlvi.ParsePlannerMode(*planner)
	if err != nil {
		fatal(err)
	}

	srv := server.New(server.Config{WatchRetention: *retention})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var followers sync.WaitGroup

	if *follow != "" {
		if err := startFollowers(ctx, &followers, srv, *follow, docs, *stateDir, *syncEvery); err != nil {
			fatal(err)
		}
	} else {
		for _, spec := range docs {
			name, doc, opts, err := openDoc(spec)
			if err != nil {
				fatal(err)
			}
			doc.SetPlanner(mode)
			if *substring {
				doc.EnableSubstringIndex()
			}
			if err := srv.AddDocumentWithOptions(name, doc, opts); err != nil {
				fatal(err)
			}
			fmt.Printf("xvid: serving %q (%d nodes, version %d, durable=%v)\n",
				name, doc.NumNodes(), doc.Version(), doc.Durable())
		}
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	// Bound how long a client may take to send request headers and how
	// long an idle keep-alive connection is held. No WriteTimeout: it
	// would cut every /v1/watch SSE stream after that long.
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()
	fmt.Printf("xvid: listening on http://%s\n", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
		fmt.Fprintln(os.Stderr, "xvid: shutting down")
	case err := <-done:
		if !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}
	shutdownCtx, shutdownCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer shutdownCancel()
	httpSrv.Shutdown(shutdownCtx) //nolint:errcheck // best-effort drain
	cancel()                      // stop follower subscriptions (each closes its document)
	followers.Wait()
	if err := srv.Close(); err != nil {
		fatal(err)
	}
}

// startFollowers registers one follower replica per leader document —
// the -doc names when given, every document the leader serves otherwise
// — and starts their subscription loops.
func startFollowers(ctx context.Context, wg *sync.WaitGroup, srv *server.Server,
	leaderURL string, docs docFlags, stateDir string, syncEvery int) error {
	names := make([]string, 0, len(docs))
	for _, spec := range docs {
		// Accept bare names; tolerate name=anything for symmetry.
		name, _, _ := strings.Cut(spec, "=")
		names = append(names, name)
	}
	if len(names) == 0 {
		discovered, err := leaderDocs(leaderURL)
		if err != nil {
			return fmt.Errorf("xvid: discover leader documents: %w", err)
		}
		names = discovered
	}
	for _, name := range names {
		cfg := replica.Config{
			LeaderURL: leaderURL,
			Doc:       name,
			SyncEvery: syncEvery,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "xvid: "+format+"\n", args...)
			},
		}
		if stateDir != "" {
			cfg.StateDir = filepath.Join(stateDir, name)
			if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
				return err
			}
		}
		f := replica.New(cfg)
		if err := f.Open(ctx); err != nil {
			return err
		}
		if err := srv.AddFollower(name, f); err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.Run(ctx) //nolint:errcheck // Run only returns on ctx cancel
		}()
		doc := f.Document()
		fmt.Printf("xvid: following %q from %s (version %d, durable=%v)\n",
			name, leaderURL, doc.Version(), doc.Durable())
	}
	return nil
}

// leaderDocs enumerates the documents a leader serves via /v1/stats.
func leaderDocs(leaderURL string) ([]string, error) {
	resp, err := http.Get(strings.TrimRight(leaderURL, "/") + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("leader answered %s", resp.Status)
	}
	var stats struct {
		Docs map[string]json.RawMessage `json:"docs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return nil, err
	}
	if len(stats.Docs) == 0 {
		return nil, errors.New("leader serves no documents")
	}
	names := make([]string, 0, len(stats.Docs))
	for name := range stats.Docs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// openDoc opens one -doc spec. For durable sources the returned options
// name the snapshot/WAL pair, enabling point-in-time queries.
func openDoc(spec string) (string, *xmlvi.Document, server.DocOptions, error) {
	name, source, ok := strings.Cut(spec, "=")
	if !ok || name == "" || source == "" {
		return "", nil, server.DocOptions{}, fmt.Errorf("xvid: -doc wants name=source, got %q", spec)
	}
	switch {
	case strings.Contains(source, "+"):
		snap, wal, _ := strings.Cut(source, "+")
		doc, err := xmlvi.OpenDurable(snap, wal)
		return name, doc, server.DocOptions{SnapshotPath: snap, WALPath: wal}, err
	case strings.HasPrefix(source, "gen:"):
		doc, err := generate(strings.TrimPrefix(source, "gen:"))
		return name, doc, server.DocOptions{}, err
	case strings.HasSuffix(source, ".xml"):
		raw, err := os.ReadFile(source)
		if err != nil {
			return "", nil, server.DocOptions{}, err
		}
		doc, err := xmlvi.ParseWithOptions(raw, xmlvi.Options{StripWhitespace: true})
		return name, doc, server.DocOptions{}, err
	default:
		doc, err := xmlvi.Load(source)
		return name, doc, server.DocOptions{}, err
	}
}

// generate builds an in-memory document from a dataset spec
// "dataset[:scale[:seed]]", e.g. "xmark1:0.05".
func generate(spec string) (*xmlvi.Document, error) {
	parts := strings.Split(spec, ":")
	scale, seed := 0.05, int64(42)
	if len(parts) >= 2 {
		v, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("xvid: bad gen scale %q: %w", parts[1], err)
		}
		scale = v
	}
	if len(parts) >= 3 {
		v, err := strconv.ParseInt(parts[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("xvid: bad gen seed %q: %w", parts[2], err)
		}
		seed = v
	}
	raw, err := datagen.Generate(parts[0], scale, seed)
	if err != nil {
		return nil, err
	}
	return xmlvi.ParseWithOptions(raw, xmlvi.Options{StripWhitespace: true})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xvid:", err)
	os.Exit(1)
}
