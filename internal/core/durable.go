package core

// Durability: a write-ahead log under the snapshot machinery, so updates
// survive crashes without paying a full snapshot rewrite per batch.
//
// A commit is its log record. Every write is one change (update.go): a
// record kind plus its fields, with one encode and one decode below.
// Indexes.commit validates the change against the current snapshot,
// appends its record to the attached WAL, and only then touches the
// copy-on-write draft it publishes. Live mutators build the change
// directly; OpenDurable's recovery, OpenAt's time travel and a follower's
// shipped stream all decode it from a record and hand it to the same
// commit through ApplyShippedRecord, so every replica and every crash
// point replays exactly what the original writer ran. Records reference
// nodes by their pre-order NodeID/AttrID at the time of the operation:
// replay applies records in their original order against the snapshot
// state, so the ids resolve to the same nodes they named originally, even
// across structural updates that shift pre ranks.
//
// Snapshot/log pairing uses checkpoint generations. Checkpoint writes a
// snapshot stamped with generation g+1 (atomically, via rename), resets
// the log, and writes a RecCheckpoint marker carrying g+1 as the log's
// first record. Recovery loads the snapshot (generation gs), reads the
// log's marker generation gl, and:
//
//   - gl == gs: the log extends this snapshot — replay its tail;
//   - gl <  gs: the log is stale (crash landed between the snapshot
//     rename and the log reset) — every record is already contained in
//     the snapshot, so the log is discarded and reset;
//   - gl >  gs: the snapshot is older than the log expects (e.g. it was
//     restored from a backup) — replaying would corrupt, so recovery
//     refuses with an error.
//
// A torn record tail — the crash case — is detected by the WAL's CRC
// framing and truncated: recovery yields exactly the state as of the
// last fully durable record, never a half-applied one.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/storage"
	"repro/internal/xmltree"
)

// ErrNoWAL is returned by Checkpoint when no write-ahead log is
// attached.
var ErrNoWAL = errors.New("core: no write-ahead log attached")

// ErrStaleSnapshot is returned by OpenDurable when the log was written
// against a newer snapshot than the one on disk.
var ErrStaleSnapshot = errors.New("core: snapshot is older than the write-ahead log expects")

// ErrVersionBeforeSnapshot is returned by OpenAt when the requested
// version predates the snapshot: the records that produced it were
// compacted away by a checkpoint, so that state can no longer be
// reconstructed from this snapshot/log pair.
var ErrVersionBeforeSnapshot = errors.New("core: requested version predates the snapshot (compacted by a checkpoint)")

// ErrVersionInFuture is returned by OpenAt when the requested version is
// newer than the durable log's last record.
var ErrVersionInFuture = errors.New("core: requested version is newer than the durable log")

// ErrVersionGap is returned by ApplyShippedRecord when a shipped record
// does not extend the current version by exactly one: the follower has
// missed or duplicated a record and must resynchronise instead of
// applying out of order.
var ErrVersionGap = errors.New("core: shipped record does not extend the current version")

// --- the log record codec ---

// encode returns ch's record payload, written with the storage codec
// into a buffer sized to fit: uvarint ids, length-prefixed values, and
// for inserts the fragment's document encoding at the end.
func (ch *change) encode() ([]byte, error) {
	size := 3*binary.MaxVarintLen64 + len(ch.value)
	for _, u := range ch.texts {
		size += 2*binary.MaxVarintLen64 + len(u.Value)
	}
	e := storage.NewBufEncoder(make([]byte, 0, size))
	switch ch.kind {
	case storage.RecCheckpoint:
		e.Uv(ch.gen)
	case storage.RecTextBatch:
		e.Uv(uint64(len(ch.texts)))
		for _, u := range ch.texts {
			e.Uv(uint64(u.Node))
			e.Str(u.Value)
		}
	case storage.RecAttrUpdate:
		e.Uv(uint64(ch.attr))
		e.Str(ch.value)
	case storage.RecDelete:
		e.Uv(uint64(ch.node))
	case storage.RecInsert:
		e.Uv(uint64(ch.parent))
		e.Uv(uint64(ch.pos))
		ch.frag.Encode(e)
	}
	return e.Bytes()
}

// decode parses one record into its change. Records arrive from disk and
// from the network, so every field must fit its type: a value that would
// wrap into another node, attribute or position is an error, and no
// count may exceed the bytes left.
func decode(rec storage.Record) (*change, error) {
	d := storage.NewDecoder(bytes.NewReader(rec.Payload))
	ch := &change{kind: rec.Kind, record: rec.Payload}
	switch rec.Kind {
	case storage.RecCheckpoint:
		ch.gen = d.Uv()
	case storage.RecTextBatch:
		n := d.Count(2) // each update is >= 2 bytes encoded
		ch.texts = make([]TextUpdate, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			node := xmltree.NodeID(d.UpTo(math.MaxInt32))
			ch.texts = append(ch.texts, TextUpdate{Node: node, Value: d.Str()})
		}
	case storage.RecAttrUpdate:
		ch.attr = xmltree.AttrID(d.UpTo(math.MaxInt32))
		ch.value = d.Str()
	case storage.RecDelete:
		ch.node = xmltree.NodeID(d.UpTo(math.MaxInt32))
	case storage.RecInsert:
		ch.parent = xmltree.NodeID(d.UpTo(math.MaxInt32))
		ch.pos = int(d.UpTo(math.MaxInt))
		var err error
		ch.frag, err = xmltree.ReadDoc(d) // fails at once on an earlier error
		d.Fail(err)
	default:
		return nil, fmt.Errorf("core: unknown WAL record kind %v", rec.Kind)
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("core: decoding %v record: %w", rec.Kind, err)
	}
	return ch, nil
}

// appendMarker appends the checkpoint marker of generation gen to w.
func appendMarker(w *storage.WAL, gen uint64) error {
	payload, err := (&change{kind: storage.RecCheckpoint, gen: gen}).encode()
	if err != nil {
		return err
	}
	return w.Append(storage.RecCheckpoint, payload)
}

// ApplyShippedRecord decodes one log record and commits it at an exact
// version boundary: the record must publish version next, which must be
// the current version + 1 (checked under the writer mutex, so concurrent
// appliers cannot interleave between check and publish). It is how a
// record that already exists becomes a commit — OpenDurable replaying
// its own log's tail, OpenAt replaying a log up to a cut, and a follower
// applying a leader's WATCH stream or WAL file — and the decoded change
// runs through the same commit as the live write that produced it. With
// a WAL attached (a durable follower) the record is appended before the
// draft is published, so the follower's own snapshot/log pair recovers
// to exactly the prefix of the leader's history it durably applied; the
// commit hook re-publishes the stream for downstream subscribers.
// Checkpoint markers are not commits and are rejected.
func (ix *Indexes) ApplyShippedRecord(next uint64, rec storage.Record) error {
	ch, err := decode(rec)
	if err != nil {
		return err
	}
	if _, err := ix.commit(ch, next); err != nil {
		return fmt.Errorf("core: applying %v record: %w", rec.Kind, err)
	}
	return nil
}

// --- durable lifecycle ---

// StartDurable attaches a fresh write-ahead log to the index set and
// writes the initial checkpoint: the current state becomes the recovery
// baseline at snapshotPath, and every subsequent mutation is logged to
// walPath. syncEvery batches fsyncs (see storage.WAL); <= 1 syncs every
// record.
func (ix *Indexes) StartDurable(snapshotPath, walPath string, syncEvery int) error {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	if ix.wal != nil {
		return errors.New("core: a write-ahead log is already attached")
	}
	w, err := storage.CreateWAL(walPath, syncEvery)
	if err != nil {
		return err
	}
	ix.wal = w
	ix.snapshotPath = snapshotPath
	if err := ix.checkpointLocked(snapshotPath); err != nil {
		ix.wal = nil
		w.Close()
		return err
	}
	return nil
}

// OpenDurable recovers a durable index set: it loads the snapshot,
// replays the write-ahead log's tail against it (discarding a stale log
// and truncating a torn one), verifies the recovered leaf state, and
// leaves the log attached for further updates. syncEvery batches fsyncs
// as in StartDurable.
func OpenDurable(snapshotPath, walPath string, syncEvery int) (*Indexes, error) {
	ix, err := Load(snapshotPath)
	if err != nil {
		return nil, err
	}
	w, records, err := storage.OpenWAL(walPath, syncEvery)
	if err != nil {
		return nil, err
	}
	fail := func(e error) (*Indexes, error) {
		w.Close()
		return nil, e
	}

	// Locate the last checkpoint marker; records before it (and the
	// marker itself) are contained in some snapshot already.
	logGen, tail, err := splitAtCheckpoint(records)
	if err != nil {
		return fail(err)
	}

	switch {
	case logGen > ix.walGen.Load():
		return fail(fmt.Errorf("%w: snapshot generation %d, log generation %d", ErrStaleSnapshot, ix.walGen.Load(), logGen))
	case logGen < ix.walGen.Load():
		// The crash landed between the checkpoint's snapshot rename and
		// its log reset: every logged record is already in the snapshot.
		// Discard the log and restamp it with the snapshot's generation.
		if err := w.Reset(); err != nil {
			return fail(err)
		}
		if err := appendMarker(w, ix.walGen.Load()); err != nil {
			return fail(err)
		}
	default:
		// No log is attached yet, so replay appends nothing.
		for _, rec := range tail {
			if err := ix.ApplyShippedRecord(ix.Version()+1, rec); err != nil {
				return fail(err)
			}
		}
		// Keep the replayed tail: it is the committed-change stream
		// between the snapshot's version and the recovered one, which a
		// watch hub replays to subscribers resuming across the restart.
		ix.recoveredTail = tail
		if len(records) == 0 {
			// Brand-new (or fully torn-away) log: stamp it so future
			// recoveries can check the pairing.
			if err := appendMarker(w, ix.walGen.Load()); err != nil {
				return fail(err)
			}
		}
	}

	if err := ix.Snapshot().VerifyLeaves(); err != nil {
		return fail(fmt.Errorf("core: recovered state failed verification: %w", err))
	}
	ix.wmu.Lock()
	ix.wal = w
	ix.snapshotPath = snapshotPath
	ix.wmu.Unlock()
	return ix, nil
}

// splitAtCheckpoint locates the last checkpoint marker in records and
// returns its generation (0 when no marker is present) together with the
// records after it — the log tail not yet contained in any snapshot.
func splitAtCheckpoint(records []storage.Record) (uint64, []storage.Record, error) {
	for i := len(records) - 1; i >= 0; i-- {
		if records[i].Kind == storage.RecCheckpoint {
			marker, err := decode(records[i])
			if err != nil {
				return 0, nil, fmt.Errorf("core: reading checkpoint marker: %w", err)
			}
			return marker.gen, records[i+1:], nil
		}
	}
	return 0, records, nil
}

// OpenAt reconstructs the state as of an exact version — point-in-time
// open. It loads the snapshot and replays the write-ahead log's tail
// only up to the commit that published version, yielding the same bytes
// a document that stopped committing there would have. The log is read,
// never written: the returned index set is a detached in-memory replica
// of one historical state, safe to open while a live writer keeps
// appending to the same log (records at or below an already-published
// version are fully framed on disk).
//
// version must lie inside the durable window: at or after the snapshot
// (ErrVersionBeforeSnapshot — older states were compacted away by a
// checkpoint) and at or before the last durably logged commit
// (ErrVersionInFuture).
func OpenAt(snapshotPath, walPath string, version uint64) (*Indexes, error) {
	ix, err := Load(snapshotPath)
	if err != nil {
		return nil, err
	}
	if version < ix.Version() {
		return nil, fmt.Errorf("%w: snapshot is at version %d, requested %d",
			ErrVersionBeforeSnapshot, ix.Version(), version)
	}
	var records []storage.Record
	if err := storage.ReplayWAL(walPath, func(rec storage.Record) error {
		records = append(records, rec)
		return nil
	}); err != nil {
		return nil, err
	}
	logGen, tail, err := splitAtCheckpoint(records)
	if err != nil {
		return nil, err
	}
	switch {
	case logGen > ix.walGen.Load():
		return nil, fmt.Errorf("%w: snapshot generation %d, log generation %d",
			ErrStaleSnapshot, ix.walGen.Load(), logGen)
	case logGen < ix.walGen.Load():
		// Stale log (crash between a checkpoint's snapshot rename and its
		// log reset): every record is already in the snapshot.
		tail = nil
	}
	for _, rec := range tail {
		if ix.Version() >= version {
			break
		}
		if err := ix.ApplyShippedRecord(ix.Version()+1, rec); err != nil {
			return nil, err
		}
	}
	if ix.Version() != version {
		return nil, fmt.Errorf("%w: durable history ends at version %d, requested %d",
			ErrVersionInFuture, ix.Version(), version)
	}
	if err := ix.Snapshot().VerifyLeaves(); err != nil {
		return nil, fmt.Errorf("core: state at version %d failed verification: %w", version, err)
	}
	return ix, nil
}

// Checkpoint writes the current state as a fresh snapshot (atomically,
// next to the previous one) and truncates the write-ahead log, bounding
// recovery time and log growth. Updates logged before Checkpoint returns
// are durable in the snapshot; the log restarts empty.
func (ix *Indexes) Checkpoint() error {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	if ix.wal == nil {
		return ErrNoWAL
	}
	return ix.checkpointLocked(ix.snapshotPath)
}

// CheckpointTo is Checkpoint with a new snapshot path, which also
// becomes the target of subsequent Checkpoint calls.
func (ix *Indexes) CheckpointTo(path string) error {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	if ix.wal == nil {
		return ErrNoWAL
	}
	ix.snapshotPath = path
	return ix.checkpointLocked(path)
}

// checkpointLocked runs under wmu: it snapshots the currently published
// version, which cannot change while the writer mutex is held.
func (ix *Indexes) checkpointLocked(path string) error {
	prev := ix.walGen.Load()
	ix.walGen.Store(prev + 1)
	tmp := path + ".tmp"
	if err := ix.cur.Load().saveFile(tmp, true, prev+1); err != nil {
		ix.walGen.Store(prev)
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		ix.walGen.Store(prev)
		os.Remove(tmp)
		return err
	}
	syncDir(filepath.Dir(path))
	// From here the new snapshot is the recovery baseline. A crash before
	// the reset below leaves a stale log (old generation), which recovery
	// detects and discards. An I/O failure below poisons the log (see
	// storage.WAL's fail-stop contract), so subsequent updates error out
	// instead of being logged with a generation recovery would discard.
	if err := ix.wal.Reset(); err != nil {
		return fmt.Errorf("core: checkpoint snapshot written but log reset failed (log poisoned, further updates will fail): %w", err)
	}
	if err := appendMarker(ix.wal, ix.walGen.Load()); err != nil {
		return fmt.Errorf("core: checkpoint snapshot written but marker append failed (log poisoned, further updates will fail): %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable. Best effort: not all platforms/filesystems support it.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// WALGeneration reports the current checkpoint generation (0 before the
// first checkpoint or when no WAL was ever attached).
func (ix *Indexes) WALGeneration() uint64 {
	return ix.walGen.Load()
}

// HasWAL reports whether a write-ahead log is attached.
func (ix *Indexes) HasWAL() bool {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	return ix.wal != nil
}

// SyncWAL forces any batched log records to stable storage (a no-op
// without a WAL). Call at quiesce points when running with fsync
// batching (syncEvery > 1).
func (ix *Indexes) SyncWAL() error {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	if ix.wal == nil {
		return nil
	}
	return ix.wal.Sync()
}

// CloseWAL syncs and detaches the write-ahead log. The index set remains
// usable in memory; further updates are no longer logged.
func (ix *Indexes) CloseWAL() error {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	if ix.wal == nil {
		return nil
	}
	err := ix.wal.Close()
	ix.wal = nil
	return err
}
