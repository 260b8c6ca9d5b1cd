package replica_test

// End-to-end replication tests over a loopback leader: the follower-
// equals-leader property (byte-identical snapshots at every record
// boundary under a mixed update storm), crash injection on the
// follower's own WAL mid-apply (restart resumes from the durable
// position with no duplicate or missing record), and the retention-gap
// failover path (410 → full re-seed from /v1/snapshot).

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	xmlvi "repro"
	"repro/internal/replica"
	"repro/internal/server"
)

const seedXML = `<site>
  <items>
    <item id="i1"><name>alpha</name><quantity>3</quantity></item>
    <item id="i2"><name>beta</name><quantity>7</quantity></item>
    <item id="i3"><name>gamma</name><quantity>5</quantity></item>
  </items>
</site>`

// newLeader serves one durable document ("site") over a loopback
// listener and returns the server, the document, and its durable pair.
func newLeader(t *testing.T, cfg server.Config) (*httptest.Server, *xmlvi.Document, string, string) {
	t.Helper()
	dir := t.TempDir()
	snap := filepath.Join(dir, "leader.xvi")
	wal := filepath.Join(dir, "leader.wal")
	doc, err := xmlvi.ParseWithOptions([]byte(seedXML), xmlvi.Options{StripWhitespace: true, WAL: wal})
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.Save(snap); err != nil { // StartDurable: baseline + log
		t.Fatal(err)
	}
	srv := server.New(cfg)
	if err := srv.AddDocumentWithOptions("site", doc,
		server.DocOptions{SnapshotPath: snap, WALPath: wal}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Errorf("leader close: %v", err)
		}
	})
	return ts, doc, snap, wal
}

// startFollower opens a durable follower against the leader and drives
// its subscription; the returned stop tears it down (idempotent).
func startFollower(t *testing.T, leaderURL, stateDir string) (*replica.Follower, func()) {
	t.Helper()
	f := replica.New(replica.Config{
		LeaderURL: leaderURL,
		Doc:       "site",
		StateDir:  stateDir,
		Logf:      t.Logf,
	})
	ctx, cancel := context.WithCancel(context.Background())
	if err := f.Open(ctx); err != nil {
		cancel()
		t.Fatalf("follower open: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(ctx) //nolint:errcheck // returns on cancel
	}()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			cancel()
			<-done
		})
	}
	t.Cleanup(stop)
	return f, stop
}

// storm drives a mixed sequence of commits — text batches, attribute
// updates, fragment insertions, subtree deletions — directly on the
// leader document; every call publishes exactly one version.
func storm(t *testing.T, doc *xmlvi.Document, commits int) {
	t.Helper()
	texts := func(i int) {
		var ups []xmlvi.TextUpdate
		for j, q := range doc.FindAll("quantity") {
			if j == 2 {
				break
			}
			ups = append(ups, xmlvi.TextUpdate{Node: doc.Children(q)[0], Value: fmt.Sprintf("%d", 10+i+j)})
		}
		if err := doc.UpdateTexts(ups); err != nil {
			t.Fatalf("storm %d: texts: %v", i, err)
		}
	}
	for i := 0; i < commits; i++ {
		switch i % 5 {
		case 0, 3:
			texts(i)
		case 1:
			it := doc.Find("item")
			a := doc.FindAttr(it, "id")
			if a < 0 {
				t.Fatalf("storm %d: first item has no id attribute", i)
			}
			if err := doc.UpdateAttr(a, fmt.Sprintf("id-%d", i)); err != nil {
				t.Fatalf("storm %d: attr: %v", i, err)
			}
		case 2:
			items := doc.Find("items")
			frag := fmt.Sprintf(`<item id="x%d"><name>extra%d</name><quantity>9</quantity></item>`, i, i)
			if _, err := doc.InsertXML(items, 0, frag); err != nil {
				t.Fatalf("storm %d: insert: %v", i, err)
			}
		case 4:
			if err := doc.Delete(doc.Find("item")); err != nil {
				t.Fatalf("storm %d: delete: %v", i, err)
			}
		}
	}
}

// pinBytes serialises a pinned version to its plain snapshot encoding.
func pinBytes(t *testing.T, p *xmlvi.Pinned) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pin.xvi")
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// waitVersion polls until the follower's document reaches version.
func waitVersion(t *testing.T, f *replica.Follower, version uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if v := f.Document().Version(); v >= version {
			if v > version {
				t.Fatalf("follower overshot: version %d, want %d", v, version)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at version %d, want %d (leader seen %d)",
				f.Document().Version(), version, f.LeaderSeen())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFollowerEquivalence is the follower-equals-leader property: under
// a mixed update storm, the follower's state at every record boundary is
// byte-identical to the leader's state at the same version — checked
// against xmlvi.OpenAt replaying the leader's own durable log to each
// version.
func TestFollowerEquivalence(t *testing.T) {
	ts, doc, snap, wal := newLeader(t, server.Config{})
	f, stop := startFollower(t, ts.URL, t.TempDir())

	// Capture the follower's bytes at every applied record boundary. The
	// commit hook runs synchronously inside the apply, so the pin is
	// exactly the just-published version.
	capDir := t.TempDir()
	var (
		mu      sync.Mutex
		got     = map[uint64][]byte{}
		hookErr error
	)
	got[f.Document().Version()] = pinBytes(t, f.Document().Pin()) // the seed boundary
	f.OnCommit(func(c xmlvi.Change) {
		p := f.Document().Pin()
		path := filepath.Join(capDir, fmt.Sprintf("v%d.xvi", c.Version))
		err := p.Save(path)
		var b []byte
		if err == nil {
			b, err = os.ReadFile(path)
		}
		mu.Lock()
		defer mu.Unlock()
		if err != nil && hookErr == nil {
			hookErr = err
			return
		}
		if p.Version() != c.Version {
			hookErr = fmt.Errorf("pin after apply at version %d, change says %d", p.Version(), c.Version)
			return
		}
		got[c.Version] = b
	})

	const commits = 40
	storm(t, doc, commits)
	leaderV := doc.Version()
	waitVersion(t, f, leaderV)
	stop()
	if hookErr != nil {
		t.Fatal(hookErr)
	}

	for v := uint64(1); v <= leaderV; v++ {
		fb, ok := got[v]
		if !ok {
			t.Fatalf("follower never published version %d", v)
		}
		hist, err := xmlvi.OpenAt(snap, wal, v)
		if err != nil {
			t.Fatalf("OpenAt leader version %d: %v", v, err)
		}
		lb := pinBytes(t, hist.Pin())
		if !bytes.Equal(fb, lb) {
			t.Fatalf("version %d: follower snapshot (%d bytes) differs from leader's (%d bytes)",
				v, len(fb), len(lb))
		}
	}
}

// TestFollowerCrashMidApply injects crashes into the follower's own
// durable log — truncating its tail at arbitrary byte offsets, torn
// records included — and checks that a restarted follower recovers to a
// record boundary, resumes from its durable position, and converges to
// the leader byte-for-byte with no duplicate or missing record.
func TestFollowerCrashMidApply(t *testing.T) {
	ts, doc, _, _ := newLeader(t, server.Config{})
	stateDir := t.TempDir()
	f, stop := startFollower(t, ts.URL, stateDir)

	// 48 commits log well over 1025 bytes, so every cut below lands
	// inside the log.
	storm(t, doc, 48)
	leaderV := doc.Version()
	waitVersion(t, f, leaderV)
	stop() // clean shutdown: the follower's WAL is synced and complete

	walPath := filepath.Join(stateDir, "wal.log")
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	want := pinBytes(t, doc.Pin())

	// Each cut re-creates the same crash scene from the pristine log: a
	// follower that died with the last record(s) torn or missing.
	for _, cut := range []int{1, 5, 9, 33, 121, 1025} {
		if cut >= len(full) {
			continue
		}
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			if err := os.WriteFile(walPath, full[:len(full)-cut], 0o644); err != nil {
				t.Fatal(err)
			}
			f2, stop2 := startFollower(t, ts.URL, stateDir)
			if v := f2.Document().Version(); v > leaderV {
				t.Fatalf("recovered beyond the leader: version %d > %d", v, leaderV)
			}
			waitVersion(t, f2, leaderV)
			if b := pinBytes(t, f2.Document().Pin()); !bytes.Equal(b, want) {
				t.Fatalf("after crash at -%d bytes: follower differs from leader at version %d", cut, leaderV)
			}
			if r := f2.Reseeds(); r != 0 {
				t.Fatalf("crash recovery took %d re-seeds, want resume from the durable position", r)
			}
			stop2()
		})
	}
}

// TestFollowerFailoverReseed forces the follower past the leader's watch
// retention window: its resume position answers 410, and the follower
// must re-seed from a full snapshot, converge, and stay durable across a
// further restart.
func TestFollowerFailoverReseed(t *testing.T) {
	ts, doc, _, _ := newLeader(t, server.Config{WatchRetention: 4})
	stateDir := t.TempDir()

	f, stop := startFollower(t, ts.URL, stateDir)
	storm(t, doc, 6)
	waitVersion(t, f, doc.Version())
	stop() // follower goes offline in sync with the leader

	// The leader advances far past the retention window while the
	// follower is down: its resume token is now unservable.
	storm(t, doc, 12)
	leaderV := doc.Version()

	f2, stop2 := startFollower(t, ts.URL, stateDir)
	waitVersion(t, f2, leaderV)
	if r := f2.Reseeds(); r != 1 {
		t.Fatalf("follower re-seeded %d times, want exactly 1", r)
	}
	if b := pinBytes(t, f2.Document().Pin()); !bytes.Equal(b, pinBytes(t, doc.Pin())) {
		t.Fatal("re-seeded follower differs from leader")
	}
	stop2()

	// The re-seed rewrote the follower's durable pair as one unit: a
	// plain restart recovers from it without another re-seed.
	f3, stop3 := startFollower(t, ts.URL, stateDir)
	if v := f3.Document().Version(); v != leaderV {
		t.Fatalf("restart after re-seed recovered version %d, want %d", v, leaderV)
	}
	if r := f3.Reseeds(); r != 0 {
		t.Fatalf("restart after re-seed re-seeded again (%d times)", r)
	}
	stop3()
}
