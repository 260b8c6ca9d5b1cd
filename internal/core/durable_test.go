package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/storage"
	"repro/internal/xmlparse"
	"repro/internal/xmltree"
)

// durablePair builds xml and starts a durable snapshot/WAL pair in a
// temp dir.
func durablePair(t *testing.T, xml string, syncEvery int) (*Indexes, string, string) {
	t.Helper()
	ix := Build(mustParseForTest(t, xml), DefaultOptions())
	dir := t.TempDir()
	snap := filepath.Join(dir, "db.xvi")
	wal := filepath.Join(dir, "db.wal")
	if err := ix.StartDurable(snap, wal, syncEvery); err != nil {
		t.Fatal(err)
	}
	return ix, snap, wal
}

func docXML(t *testing.T, ix *Indexes) []byte {
	t.Helper()
	b, err := xmlparse.SerializeToBytes(ix.Doc())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// assertSameState compares a recovered (or still-live durable) index
// set against the always-in-memory oracle: identical document bytes and
// identical observable index structures.
func assertSameState(t *testing.T, oracle, got *Indexes) {
	t.Helper()
	if ox, gx := docXML(t, oracle), docXML(t, got); !bytes.Equal(ox, gx) {
		t.Fatalf("document diverged from oracle:\n got: %.200s\nwant: %.200s", gx, ox)
	}
	assertIndexesEqual(t, oracle, got)
}

func randomDurableValue(rng *rand.Rand) string {
	switch rng.Intn(5) {
	case 0:
		return fmt.Sprintf("%d.%02d", rng.Intn(1000), rng.Intn(100))
	case 1:
		return fmt.Sprintf("%04d-%02d-%02d", 1990+rng.Intn(30), 1+rng.Intn(12), 1+rng.Intn(28))
	case 2:
		return fmt.Sprintf("%04d-%02d-%02dT%02d:%02d:%02d", 2000+rng.Intn(20), 1+rng.Intn(12), 1+rng.Intn(28), rng.Intn(24), rng.Intn(60), rng.Intn(60))
	case 3:
		return fmt.Sprintf("word%d and more", rng.Intn(100))
	default:
		return fmt.Sprintf("%d", rng.Intn(100000))
	}
}

func textNodesOf(doc *xmltree.Doc) []xmltree.NodeID {
	var out []xmltree.NodeID
	for i := 0; i < doc.NumNodes(); i++ {
		if doc.Kind(xmltree.NodeID(i)) == xmltree.Text {
			out = append(out, xmltree.NodeID(i))
		}
	}
	return out
}

// TestRecoveryEquivalenceRandomInterleavings is the recovery-equivalence
// property: random interleavings of text/attr updates, structural
// updates, checkpoints, and close/reopen cycles on XMark data and the
// pathological shape corpus must always match an in-memory oracle that
// applied the same operations — both live and after every reopen.
func TestRecoveryEquivalenceRandomInterleavings(t *testing.T) {
	xmark, err := datagen.Generate("xmark1", 0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	cases := append([]shapeCase{{"xmark1", string(xmark)}}, shapeCorpus()...)
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, run := range []struct {
				seed      int64
				syncEvery int
			}{{1, 1}, {2, 7}} {
				ix, snap, wal := durablePair(t, tc.xml, run.syncEvery)
				var err error
				oracle := Build(mustParseForTest(t, tc.xml), DefaultOptions())
				rng := rand.New(rand.NewSource(run.seed))

				apply := func(f func(*Indexes) error) {
					t.Helper()
					if err := f(oracle); err != nil {
						t.Fatalf("oracle: %v", err)
					}
					if err := f(ix); err != nil {
						t.Fatalf("durable: %v", err)
					}
				}

				const steps = 50
				for s := 0; s < steps; s++ {
					doc := oracle.Doc()
					switch pick := rng.Intn(100); {
					case pick < 40: // batched text updates
						texts := textNodesOf(doc)
						if len(texts) == 0 {
							continue
						}
						batch := make([]TextUpdate, 1+rng.Intn(3))
						for i := range batch {
							batch[i] = TextUpdate{Node: texts[rng.Intn(len(texts))], Value: randomDurableValue(rng)}
						}
						apply(func(x *Indexes) error { return x.UpdateTexts(batch) })
					case pick < 55: // attribute update
						if doc.NumAttrs() == 0 {
							continue
						}
						a := xmltree.AttrID(rng.Intn(doc.NumAttrs()))
						v := randomDurableValue(rng)
						apply(func(x *Indexes) error { return x.UpdateAttr(a, v) })
					case pick < 65: // subtree delete (small subtrees only, so the doc survives)
						if doc.NumNodes() < 8 {
							continue
						}
						var victim xmltree.NodeID = xmltree.InvalidNode
						for try := 0; try < 10; try++ {
							n := xmltree.NodeID(1 + rng.Intn(doc.NumNodes()-1))
							if doc.Size(n) <= 10 {
								victim = n
								break
							}
						}
						if victim == xmltree.InvalidNode {
							continue
						}
						apply(func(x *Indexes) error { return x.DeleteSubtree(victim) })
					case pick < 80: // fragment insert
						frag := mustParseForTest(t, fmt.Sprintf(`<ins a="%s"><v>%s</v>%s</ins>`,
							randomDurableValue(rng), randomDurableValue(rng), randomDurableValue(rng)))
						var parent xmltree.NodeID = xmltree.InvalidNode
						start := rng.Intn(doc.NumNodes())
						for i := 0; i < doc.NumNodes(); i++ {
							n := xmltree.NodeID((start + i) % doc.NumNodes())
							if doc.Kind(n) == xmltree.Element {
								parent = n
								break
							}
						}
						if parent == xmltree.InvalidNode {
							parent = doc.Root()
						}
						children := 0
						for c := doc.FirstChild(parent); c != xmltree.InvalidNode; c = doc.NextSibling(c) {
							children++
						}
						pos := rng.Intn(children + 1)
						apply(func(x *Indexes) error {
							_, err := x.InsertChildren(parent, pos, frag)
							return err
						})
					case pick < 90: // checkpoint
						if err := ix.Checkpoint(); err != nil {
							t.Fatalf("checkpoint: %v", err)
						}
					default: // crashless close + reopen (replay path)
						if err := ix.CloseWAL(); err != nil {
							t.Fatal(err)
						}
						ix, err = OpenDurable(snap, wal, run.syncEvery)
						if err != nil {
							t.Fatalf("reopen at step %d: %v", s, err)
						}
						assertSameState(t, oracle, ix)
					}
				}

				// Live state matches the oracle...
				assertSameState(t, oracle, ix)
				// ...and so does a final recovery from disk.
				if err := ix.CloseWAL(); err != nil {
					t.Fatal(err)
				}
				re, err := OpenDurable(snap, wal, run.syncEvery)
				if err != nil {
					t.Fatalf("final reopen: %v", err)
				}
				assertSameState(t, oracle, re)
				if err := re.Verify(); err != nil {
					t.Fatalf("recovered index fails Verify: %v", err)
				}
				if err := re.CloseWAL(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestOpenDurableStaleLogDiscarded pins the crash window between a
// checkpoint's snapshot rename and its log reset: the leftover log's
// records are already contained in the snapshot, so recovery must
// discard them (not double-apply) and restamp the log.
func TestOpenDurableStaleLogDiscarded(t *testing.T) {
	ix, snap, wal := durablePair(t, `<r><a>1</a><b>two</b></r>`, 1)
	if err := ix.UpdateText(textNodesOf(ix.Doc())[0], "updated"); err != nil {
		t.Fatal(err)
	}
	if err := ix.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	staleLog, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Checkpoint(); err != nil { // snapshot now contains the update
		t.Fatal(err)
	}
	want := docXML(t, ix)
	if err := ix.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: the old (pre-reset) log survives next to the
	// new snapshot.
	if err := os.WriteFile(wal, staleLog, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurable(snap, wal, 1)
	if err != nil {
		t.Fatalf("recovery with stale log: %v", err)
	}
	if got := docXML(t, re); !bytes.Equal(got, want) {
		t.Fatalf("stale log was replayed:\n got: %s\nwant: %s", got, want)
	}
	if err := re.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := re.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	// The restamped log must pair with the snapshot on a second open.
	re2, err := OpenDurable(snap, wal, 1)
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	if got := docXML(t, re2); !bytes.Equal(got, want) {
		t.Fatalf("second recovery diverged")
	}
	re2.CloseWAL()
}

// TestOpenDurableRefusesOldSnapshot: a snapshot older than the log's
// checkpoint generation (say, restored from backup) must be refused —
// replaying the log against it would corrupt silently.
func TestOpenDurableRefusesOldSnapshot(t *testing.T) {
	ix, snap, wal := durablePair(t, `<r><a>1</a></r>`, 1)
	oldSnap, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Checkpoint(); err != nil { // log generation moves ahead
		t.Fatal(err)
	}
	if err := ix.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snap, oldSnap, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenDurable(snap, wal, 1)
	if err == nil {
		t.Fatal("OpenDurable accepted a snapshot older than the log")
	}
	if !errorsIs(err, ErrStaleSnapshot) {
		t.Fatalf("error %v, want ErrStaleSnapshot", err)
	}
}

// errorsIs avoids importing errors just for one assertion.
func errorsIs(err, target error) bool {
	for e := err; e != nil; {
		if e == target {
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

func TestCheckpointGenerations(t *testing.T) {
	ix, snap, wal := durablePair(t, `<r><a>1</a></r>`, 1)
	if g := ix.WALGeneration(); g != 1 {
		t.Fatalf("generation after StartDurable = %d, want 1", g)
	}
	if err := ix.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if g := ix.WALGeneration(); g != 2 {
		t.Fatalf("generation after Checkpoint = %d, want 2", g)
	}
	ix.CloseWAL()
	re, err := OpenDurable(snap, wal, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g := re.WALGeneration(); g != 2 {
		t.Fatalf("generation after reopen = %d, want 2", g)
	}
	re.CloseWAL()
}

// TestPlainSaveIsNotACheckpoint: core-level Save writes a generation-0
// snapshot that deliberately does not pair with an existing log.
func TestPlainSaveIsNotACheckpoint(t *testing.T) {
	ix := Build(mustParseForTest(t, `<r><a>1</a></r>`), DefaultOptions())
	path := filepath.Join(t.TempDir(), "plain.xvi")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if g := loaded.WALGeneration(); g != 0 {
		t.Fatalf("plain snapshot loads with generation %d, want 0", g)
	}
}

func TestEmptyBatchNotLogged(t *testing.T) {
	ix, _, wal := durablePair(t, `<r><a>1</a></r>`, 1)
	before, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.UpdateTexts(nil); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if before.Size() != after.Size() {
		t.Fatalf("empty batch grew the log by %d bytes", after.Size()-before.Size())
	}
	ix.CloseWAL()
}

func TestApplyShippedRecordUnknownKind(t *testing.T) {
	ix := Build(mustParseForTest(t, `<r><a>1</a></r>`), DefaultOptions())
	if err := ix.ApplyShippedRecord(2, storage.Record{Kind: 99}); err == nil {
		t.Fatal("unknown record kind applied without error")
	}
	marker := storage.Record{Kind: storage.RecCheckpoint, Payload: []byte{1}}
	if err := ix.ApplyShippedRecord(2, marker); err == nil {
		t.Fatal("checkpoint marker applied as a commit")
	}
	if ix.Version() != 1 {
		t.Fatalf("rejected records moved the version to %d", ix.Version())
	}
}

// TestRecordDecodeBounds: a record field that overflows its id or
// position type is rejected, not truncated into a different node.
func TestRecordDecodeBounds(t *testing.T) {
	ix := Build(mustParseForTest(t, `<r a="x"><a>1</a><b>2</b></r>`), DefaultOptions())
	before := savedBytes(t, ix)
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	e := storage.NewBufEncoder(nil)
	mustParseForTest(t, `<x/>`).Encode(e)
	frag, err := e.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	// An insert whose fragment names 2^22 nodes in 19 bytes.
	hugeFrag := append(uv(1, 0, 1<<22, 0), make([]byte, 12)...)
	for _, tc := range []struct {
		name string
		rec  storage.Record
	}{
		{"text node past int32", storage.Record{Kind: storage.RecTextBatch, Payload: append(uv(1, 1<<32|3, 1), 'v')}},
		{"text batch count", storage.Record{Kind: storage.RecTextBatch, Payload: uv(1 << 40)}},
		{"attr past int32", storage.Record{Kind: storage.RecAttrUpdate, Payload: append(uv(1<<32, 1), 'v')}},
		{"string length", storage.Record{Kind: storage.RecAttrUpdate, Payload: uv(0, 1<<40)}},
		{"delete past int32", storage.Record{Kind: storage.RecDelete, Payload: uv(1<<32 | 2)}},
		{"insert parent past int32", storage.Record{Kind: storage.RecInsert, Payload: append(uv(1<<32|1, 0), frag...)}},
		{"insert pos past int", storage.Record{Kind: storage.RecInsert, Payload: append(uv(1, 1<<63), frag...)}},
		{"insert fragment node count", storage.Record{Kind: storage.RecInsert, Payload: hugeFrag}},
	} {
		if err := ix.ApplyShippedRecord(2, tc.rec); err == nil {
			t.Errorf("%s: record applied without error", tc.name)
		}
	}
	// The fragment's node count is bounded by the bytes left, so the
	// decoder fails before allocating the columns the count names.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err = decode(storage.Record{Kind: storage.RecInsert, Payload: hugeFrag})
	runtime.ReadMemStats(&m1)
	if err == nil {
		t.Error("a fragment naming 2^22 nodes decoded")
	}
	if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("decoding a %d-byte insert record allocated %d bytes", len(hugeFrag), alloc)
	}
	if ix.Version() != 1 {
		t.Fatalf("rejected records moved the version to %d", ix.Version())
	}
	if !bytes.Equal(savedBytes(t, ix), before) {
		t.Fatal("rejected records changed the snapshot")
	}
}

// TestValidationFailuresLogNothing: an invalid operation must neither
// mutate nor log — otherwise replay would diverge.
func TestValidationFailuresLogNothing(t *testing.T) {
	ix, _, wal := durablePair(t, `<r><a>1</a></r>`, 1)
	before, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.UpdateText(ix.Doc().Root(), "nope"); err == nil {
		t.Fatal("UpdateText on document node succeeded")
	}
	if err := ix.UpdateAttr(xmltree.AttrID(99), "nope"); err == nil {
		t.Fatal("UpdateAttr out of range succeeded")
	}
	if err := ix.DeleteSubtree(0); err == nil {
		t.Fatal("DeleteSubtree of document node succeeded")
	}
	if err := ix.DeleteSubtree(xmltree.NodeID(99)); err == nil {
		t.Fatal("DeleteSubtree out of range succeeded")
	}
	frag := mustParseForTest(t, `<x>1</x>`)
	if _, err := ix.InsertChildren(ix.Doc().Root(), 5, frag); err == nil {
		t.Fatal("InsertChildren at invalid position succeeded")
	}
	after, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if before.Size() != after.Size() {
		t.Fatalf("failed operations grew the log by %d bytes", after.Size()-before.Size())
	}
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
	ix.CloseWAL()
}

// TestOpenDurableCrashMidVersionPublish is the MVCC flavour of the
// crash-injection property: a sequence of version-publishing commits
// (text batch, attr update, delete, insert) runs against a durable
// index, and a crash is injected at EVERY byte boundary of the logged
// tail. Recovery must always land on exactly one of the published
// version boundaries — the document is byte-identical to some pre- or
// post-commit snapshot, never a blend of two versions — and the number
// of recovered commits grows monotonically with the surviving prefix.
func TestOpenDurableCrashMidVersionPublish(t *testing.T) {
	ix, snap, wal := durablePair(t, `<r at="0"><a>1</a><b>two</b><c>3.5</c></r>`, 1)

	// states[g] is the serialized document after g commits.
	states := [][]byte{docXML(t, ix)}
	commit := func(f func() error) {
		t.Helper()
		if err := f(); err != nil {
			t.Fatal(err)
		}
		states = append(states, docXML(t, ix))
	}
	texts := textNodesOf(ix.Doc())
	commit(func() error {
		return ix.UpdateTexts([]TextUpdate{
			{Node: texts[0], Value: "42"},
			{Node: texts[1], Value: "forty-two"},
		})
	})
	commit(func() error { return ix.UpdateAttr(0, "updated") })
	commit(func() error {
		doc := ix.Doc()
		for i := 0; i < doc.NumNodes(); i++ {
			n := xmltree.NodeID(i)
			if doc.Kind(n) == xmltree.Element && doc.Name(n) == "b" {
				return ix.DeleteSubtree(n)
			}
		}
		return fmt.Errorf("no <b>")
	})
	commit(func() error {
		_, err := ix.InsertChildren(ix.Doc().Root(), 0, mustParseForTest(t, `<d ts="2009-03-24">12.5</d>`))
		return err
	})
	commit(func() error { return ix.UpdateText(textNodesOf(ix.Doc())[0], "99.5") })
	if err := ix.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	rawSnap, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	rawWAL, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}

	lastRecovered := 0
	for cut := 0; cut <= len(rawWAL); cut++ {
		dir := t.TempDir()
		snapCopy := filepath.Join(dir, "db.xvi")
		walCopy := filepath.Join(dir, "db.wal")
		if err := os.WriteFile(snapCopy, rawSnap, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(walCopy, rawWAL[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := OpenDurable(snapCopy, walCopy, 1)
		if err != nil {
			t.Fatalf("cut@%d: recovery failed: %v", cut, err)
		}
		got := docXML(t, re)
		verr := re.Verify()
		re.CloseWAL()
		if verr != nil {
			t.Fatalf("cut@%d: recovered index fails Verify: %v", cut, verr)
		}
		recovered := -1
		for g, want := range states {
			if bytes.Equal(got, want) {
				recovered = g
				break
			}
		}
		if recovered < 0 {
			t.Fatalf("cut@%d: recovered document matches no published version:\n%s", cut, got)
		}
		if recovered < lastRecovered {
			t.Fatalf("cut@%d: recovered %d commits after %d at a shorter prefix", cut, recovered, lastRecovered)
		}
		lastRecovered = recovered
	}
	if lastRecovered != len(states)-1 {
		t.Fatalf("full log recovered %d commits, want %d", lastRecovered, len(states)-1)
	}
}
