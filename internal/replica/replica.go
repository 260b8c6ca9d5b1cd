// Package replica implements WAL log shipping over the xvid protocol: a
// Follower subscribes to a leader's /v1/watch stream with ?payload=1 —
// each event then carries the canonical write-ahead-log record of one
// commit — and applies every record through xmlvi.Document.ApplyChange
// at exactly the matching version boundary. The follower's document is
// byte-for-byte the leader's at every record boundary, readable through
// the same lock-free MVCC snapshot path, and (with a state directory)
// durable under its own snapshot/log pair: each shipped record is
// appended to the follower's log before it is published, so a crash
// mid-apply recovers to exactly the prefix it durably applied and the
// subscription resumes from there with no duplicate or missing record.
//
// When the leader reports the resume position as gone (HTTP 410 or a
// resume_gone stream error — the follower fell behind the watch
// retention window), the follower re-seeds: it fetches a full snapshot
// from /v1/snapshot, swaps in a fresh document at the leader's version,
// and re-subscribes from there. The server reads the document through
// the FollowerSource interface on every request, so the swap is one
// atomic pointer exchange; its watch hub detects the version jump and
// answers downstream resumers with resume_gone in turn.
package replica

import (
	"bufio"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	xmlvi "repro"
	"repro/internal/server"
)

// Config configures a Follower.
type Config struct {
	// LeaderURL is the leader server's base URL (http://host:port).
	LeaderURL string
	// Doc names the document on the leader; may be empty when the leader
	// serves exactly one.
	Doc string
	// StateDir, when set, makes the follower durable: it keeps its own
	// snapshot/WAL pair (snapshot.xvi + wal.log) there, recovers from it
	// on restart, and resumes the subscription from the recovered
	// version. When empty the follower is ephemeral and seeds itself from
	// the leader on every start.
	StateDir string
	// SyncEvery batches the follower log's fsyncs (xmlvi
	// Options.WALSyncEvery); 0 syncs after every applied record.
	SyncEvery int
	// Client issues the HTTP requests; it must not set a global Timeout
	// (watch streams are long-lived). Defaults to a fresh http.Client.
	Client *http.Client
	// Logf receives progress and retry diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// Follower is one replicated document: create with New, initialise with
// Open, serve it (it implements server.FollowerSource), and drive the
// subscription with Run.
type Follower struct {
	cfg Config

	// doc is the current document, swapped wholesale by a re-seed; nil
	// until Open succeeds.
	doc atomic.Pointer[xmlvi.Document]

	// leaderSeen is the highest leader version observed on the stream —
	// from hello (the leader's current position) or any change event,
	// applied or not.
	leaderSeen atomic.Uint64

	applied atomic.Uint64
	reseeds atomic.Uint64

	// mu serializes document swaps against OnCommit rewiring.
	mu       sync.Mutex
	onCommit func(xmlvi.Change)
}

// New returns an unopened follower.
func New(cfg Config) *Follower {
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	cfg.LeaderURL = strings.TrimRight(cfg.LeaderURL, "/")
	return &Follower{cfg: cfg}
}

// Document returns the follower's current document (nil before Open).
func (f *Follower) Document() *xmlvi.Document { return f.doc.Load() }

// LeaderSeen reports the highest leader version observed on the
// subscription, applied or not.
func (f *Follower) LeaderSeen() uint64 { return f.leaderSeen.Load() }

// Applied reports the number of shipped records applied since start.
func (f *Follower) Applied() uint64 { return f.applied.Load() }

// Reseeds reports how many full re-seeds retention gaps have forced.
func (f *Follower) Reseeds() uint64 { return f.reseeds.Load() }

// OnCommit installs fn as the commit observer of the current document
// and of every document a re-seed swaps in (nil clears it).
func (f *Follower) OnCommit(fn func(xmlvi.Change)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.onCommit = fn
	if d := f.doc.Load(); d != nil {
		d.OnCommit(fn)
	}
}

// swapDoc publishes d as the current document, wiring the commit
// observer, and closes the replaced one.
func (f *Follower) swapDoc(d *xmlvi.Document) {
	f.mu.Lock()
	defer f.mu.Unlock()
	old := f.doc.Load()
	d.OnCommit(f.onCommit)
	f.doc.Store(d)
	if old != nil {
		old.OnCommit(nil)
		old.Close() //nolint:errcheck // superseded state
	}
}

// snapshotPath and walPath name the durable pair inside StateDir.
func (f *Follower) snapshotPath() string { return filepath.Join(f.cfg.StateDir, "snapshot.xvi") }
func (f *Follower) walPath() string      { return filepath.Join(f.cfg.StateDir, "wal.log") }

// Open initialises the follower's document: recover from the state
// directory when it holds a snapshot, seed from the leader otherwise.
// Call once before serving or Run; Run calls it if needed.
func (f *Follower) Open(ctx context.Context) error {
	if f.doc.Load() != nil {
		return nil
	}
	if f.cfg.StateDir != "" {
		if _, err := os.Stat(f.snapshotPath()); err == nil {
			doc, err := xmlvi.OpenDurableWithOptions(f.snapshotPath(), f.walPath(),
				xmlvi.Options{WALSyncEvery: f.cfg.SyncEvery})
			if err != nil {
				return fmt.Errorf("replica: recover %s: %w", f.cfg.StateDir, err)
			}
			f.swapDoc(doc)
			f.cfg.Logf("replica: recovered %s at version %d", f.cfg.Doc, doc.Version())
			return nil
		}
	}
	return f.seed(ctx)
}

// seed fetches a full snapshot from the leader and swaps in a fresh
// document at the leader's version. With a state directory the seed
// becomes the follower's own durable pair (baseline snapshot written,
// log attached and truncated); without one the document stays in
// memory.
func (f *Follower) seed(ctx context.Context) error {
	u := f.cfg.LeaderURL + "/v1/snapshot"
	if f.cfg.Doc != "" {
		u += "?doc=" + url.QueryEscape(f.cfg.Doc)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return fmt.Errorf("replica: seed: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replica: seed: leader answered %s: %s", resp.Status, readErrorBody(resp.Body))
	}
	version, _ := strconv.ParseUint(resp.Header.Get("X-Xvid-Version"), 10, 64)

	dir := f.cfg.StateDir
	if dir == "" {
		dir = os.TempDir()
	}
	tmp, err := os.CreateTemp(dir, "seed-*.xvi")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	_, cpErr := io.Copy(tmp, resp.Body)
	if err := tmp.Close(); cpErr == nil {
		cpErr = err
	}
	if cpErr != nil {
		return fmt.Errorf("replica: seed: fetch snapshot: %w", cpErr)
	}

	var doc *xmlvi.Document
	if f.cfg.StateDir != "" {
		doc, err = xmlvi.LoadWithOptions(tmp.Name(), xmlvi.Options{
			WAL: f.walPath(), WALSyncEvery: f.cfg.SyncEvery,
		})
		if err == nil {
			// The first Save writes the baseline snapshot and attaches
			// (truncating) the log — a stale pair from before the re-seed
			// is overwritten as one unit.
			err = doc.Save(f.snapshotPath())
		}
	} else {
		doc, err = xmlvi.Load(tmp.Name())
	}
	if err != nil {
		return fmt.Errorf("replica: seed: %w", err)
	}
	if leader := f.leaderSeen.Load(); version > leader {
		f.leaderSeen.Store(version)
	}
	f.swapDoc(doc)
	f.cfg.Logf("replica: seeded %s at leader version %d", f.cfg.Doc, doc.Version())
	return nil
}

// Backoff bounds for the retry loop.
const (
	minBackoff = 100 * time.Millisecond
	maxBackoff = 3 * time.Second
)

// errReseed signals that the resume position is gone from the leader's
// retention window and only a full re-seed can resynchronise.
var errReseed = errors.New("replica: resume position gone, re-seed required")

// Run drives the subscription until ctx is cancelled: open (or recover),
// subscribe from the current version, apply shipped records in order,
// and on any failure back off and reconnect — re-seeding from a full
// snapshot when the leader reports the resume position gone. On return
// the follower's document is closed (its log synced and detached);
// readers holding pinned snapshots are unaffected.
func (f *Follower) Run(ctx context.Context) error {
	defer func() {
		if d := f.doc.Load(); d != nil {
			d.Close() //nolint:errcheck // shutdown path
		}
	}()
	backoff := time.Duration(0)
	for {
		if err := sleepCtx(ctx, backoff); err != nil {
			return nil
		}
		if err := f.Open(ctx); err != nil {
			if ctx.Err() != nil {
				return nil
			}
			f.cfg.Logf("replica: %v", err)
			backoff = nextBackoff(backoff)
			continue
		}
		n, err := f.stream(ctx)
		if ctx.Err() != nil {
			return nil
		}
		if errors.Is(err, errReseed) {
			f.reseeds.Add(1)
			f.cfg.Logf("replica: %s fell behind the leader's retention window, re-seeding", f.cfg.Doc)
			if err := f.seed(ctx); err != nil && ctx.Err() == nil {
				f.cfg.Logf("replica: %v", err)
			}
		} else if err != nil {
			f.cfg.Logf("replica: stream: %v", err)
		}
		if n > 0 {
			backoff = 0 // made progress: reconnect immediately
		} else {
			backoff = nextBackoff(backoff)
		}
	}
}

// stream opens one watch subscription from the document's current
// version and applies events until the connection fails, returning the
// number of records applied. errReseed reports an unresumable position.
func (f *Follower) stream(ctx context.Context) (applied int, err error) {
	doc := f.doc.Load()
	u := fmt.Sprintf("%s/v1/watch?payload=1&from=%d", f.cfg.LeaderURL, doc.Version())
	if f.cfg.Doc != "" {
		u += "&doc=" + url.QueryEscape(f.cfg.Doc)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, err
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return 0, errReseed
	default:
		return 0, fmt.Errorf("leader answered %s: %s", resp.Status, readErrorBody(resp.Body))
	}

	sc := newEventScanner(resp.Body)
	for {
		ev, err := sc.next()
		if err != nil {
			return applied, err
		}
		switch ev.name {
		case "hello":
			var h server.WatchHello
			if err := json.Unmarshal(ev.data, &h); err != nil {
				return applied, fmt.Errorf("bad hello event: %w", err)
			}
			f.observeLeader(uint64(h.Current))
		case "change":
			var c server.WatchEvent
			if err := json.Unmarshal(ev.data, &c); err != nil {
				return applied, fmt.Errorf("bad change event: %w", err)
			}
			f.observeLeader(uint64(c.Version))
			if uint64(c.Version) <= doc.Version() {
				continue // duplicate from a resumed stream
			}
			change, err := toChange(c)
			if err != nil {
				return applied, err
			}
			if err := doc.ApplyChange(change); err != nil {
				// A version gap means this stream skipped records (or the
				// document moved underneath us); reconnecting from the
				// document's version resynchronises.
				return applied, fmt.Errorf("apply version %d: %w", change.Version, err)
			}
			f.applied.Add(1)
			applied++
		case "error":
			var e server.ErrorBody
			if err := json.Unmarshal(ev.data, &e); err == nil && e.Error.Code == server.CodeResumeGone {
				return applied, errReseed
			}
			return applied, fmt.Errorf("leader stream error: %s", ev.data)
		}
	}
}

// observeLeader advances leaderSeen monotonically.
func (f *Follower) observeLeader(v uint64) {
	for {
		cur := f.leaderSeen.Load()
		if v <= cur || f.leaderSeen.CompareAndSwap(cur, v) {
			return
		}
	}
}

func nextBackoff(d time.Duration) time.Duration {
	if d == 0 {
		return minBackoff
	}
	if d *= 2; d > maxBackoff {
		return maxBackoff
	}
	return d
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// toChange turns a change event into the public Change the document
// applies.
func toChange(c server.WatchEvent) (xmlvi.Change, error) {
	payload, err := base64.StdEncoding.DecodeString(c.Payload)
	if err != nil {
		return xmlvi.Change{}, fmt.Errorf("bad change payload: %w", err)
	}
	if len(payload) == 0 {
		return xmlvi.Change{}, errors.New("change event without payload (stream not opened with ?payload=1?)")
	}
	return xmlvi.Change{Version: uint64(c.Version), Kind: c.Kind, Ops: c.Ops, Payload: payload}, nil
}

// readErrorBody extracts a protocol error message for diagnostics.
func readErrorBody(r io.Reader) string {
	b, _ := io.ReadAll(io.LimitReader(r, 4096))
	var e server.ErrorBody
	if json.Unmarshal(b, &e) == nil && e.Error.Code != "" {
		return e.Error.Code + ": " + e.Error.Message
	}
	return strings.TrimSpace(string(b))
}

// --- server-sent events ---

type event struct {
	name string
	data []byte
}

type eventScanner struct {
	r *bufio.Reader
}

func newEventScanner(r io.Reader) *eventScanner {
	return &eventScanner{r: bufio.NewReader(r)}
}

// next reads one event (name + concatenated data lines), skipping
// comment/heartbeat lines.
func (s *eventScanner) next() (event, error) {
	var ev event
	var data []byte
	for {
		line, err := s.r.ReadString('\n')
		if err != nil {
			return event{}, err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if ev.name != "" || len(data) > 0 {
				ev.data = data
				return ev, nil
			}
		case strings.HasPrefix(line, ":"): // heartbeat comment
		case strings.HasPrefix(line, "event:"):
			ev.name = strings.TrimSpace(line[len("event:"):])
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimSpace(line[len("data:"):])...)
		}
	}
}
