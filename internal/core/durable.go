package core

// Durability: a write-ahead log under the snapshot machinery, so updates
// survive crashes without paying a full snapshot rewrite per batch.
//
// Every mutating entry point (UpdateText(s), UpdateAttr, DeleteSubtree,
// InsertChildren — and therefore every transaction commit, which funnels
// through UpdateTexts) appends one logical record to the attached WAL
// after validating its arguments and before touching any in-memory
// state. Records reference nodes by their pre-order NodeID/AttrID at the
// time of the operation: replay applies records in their original order
// against the snapshot state, so the ids resolve to the same nodes they
// named originally, even across structural updates that shift pre ranks.
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

// --- record payload codecs ---

// recDecoder is a cursor over a record payload. All fields are uvarints
// or length-prefixed byte strings.
type recDecoder struct {
	p   []byte
	off int
	err error
}

func (d *recDecoder) uv() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.p[d.off:])
	if n <= 0 {
		d.err = errors.New("core: truncated WAL record field")
		return 0
	}
	d.off += n
	return v
}

func (d *recDecoder) bytes() []byte {
	n := int(d.uv())
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.p) {
		d.err = errors.New("core: truncated WAL record bytes")
		return nil
	}
	out := d.p[d.off : d.off+n]
	d.off += n
	return out
}

func (d *recDecoder) rest() []byte {
	out := d.p[d.off:]
	d.off = len(d.p)
	return out
}

// recEncoder builds a record payload in a right-sized buffer — records
// are usually tiny (a handful of varints plus the new values), so the
// snapshot codec's 64 KiB streaming buffer would dominate the cost of a
// durable update.
type recEncoder struct{ b []byte }

func (e *recEncoder) uv(v uint64)  { e.b = binary.AppendUvarint(e.b, v) }
func (e *recEncoder) str(s string) { e.uv(uint64(len(s))); e.b = append(e.b, s...) }
func (e *recEncoder) raw(p []byte) { e.b = append(e.b, p...) }

func encodeTextBatch(updates []TextUpdate) []byte {
	size := 10
	for _, u := range updates {
		size += len(u.Value) + 2*binary.MaxVarintLen64
	}
	e := recEncoder{b: make([]byte, 0, size)}
	e.uv(uint64(len(updates)))
	for _, u := range updates {
		e.uv(uint64(u.Node))
		e.str(u.Value)
	}
	return e.b
}

func decodeTextBatch(p []byte) ([]TextUpdate, error) {
	d := &recDecoder{p: p}
	n := int(d.uv())
	if d.err != nil {
		return nil, d.err
	}
	if n < 0 || n > len(p)/2 { // each update is >= 2 bytes encoded
		return nil, fmt.Errorf("core: implausible text batch size %d", n)
	}
	updates := make([]TextUpdate, 0, n)
	for i := 0; i < n; i++ {
		node := xmltree.NodeID(d.uv())
		val := d.bytes()
		if d.err != nil {
			return nil, d.err
		}
		updates = append(updates, TextUpdate{Node: node, Value: string(val)})
	}
	return updates, d.err
}

func encodeAttrUpdate(a xmltree.AttrID, value string) []byte {
	e := recEncoder{b: make([]byte, 0, len(value)+2*binary.MaxVarintLen64)}
	e.uv(uint64(a))
	e.str(value)
	return e.b
}

func decodeAttrUpdate(p []byte) (xmltree.AttrID, string, error) {
	d := &recDecoder{p: p}
	a := xmltree.AttrID(d.uv())
	val := d.bytes()
	return a, string(val), d.err
}

func encodeDelete(n xmltree.NodeID) []byte {
	e := recEncoder{b: make([]byte, 0, binary.MaxVarintLen64)}
	e.uv(uint64(n))
	return e.b
}

func decodeDelete(p []byte) (xmltree.NodeID, error) {
	d := &recDecoder{p: p}
	n := xmltree.NodeID(d.uv())
	return n, d.err
}

func encodeInsert(parent xmltree.NodeID, pos int, frag *xmltree.Doc) ([]byte, error) {
	e := recEncoder{}
	e.uv(uint64(parent))
	e.uv(uint64(pos))
	var b bytes.Buffer
	if _, err := frag.WriteTo(&b); err != nil {
		return nil, err
	}
	e.raw(b.Bytes())
	return e.b, nil
}

func decodeInsert(p []byte) (xmltree.NodeID, int, *xmltree.Doc, error) {
	d := &recDecoder{p: p}
	parent := xmltree.NodeID(d.uv())
	pos := int(d.uv())
	if d.err != nil {
		return 0, 0, nil, d.err
	}
	frag, err := xmltree.ReadDoc(bytes.NewReader(d.rest()))
	if err != nil {
		return 0, 0, nil, err
	}
	return parent, pos, frag, nil
}

func encodeCheckpoint(gen uint64) []byte {
	e := recEncoder{b: make([]byte, 0, binary.MaxVarintLen64)}
	e.uv(gen)
	return e.b
}

func decodeCheckpoint(p []byte) (uint64, error) {
	d := &recDecoder{p: p}
	gen := d.uv()
	return gen, d.err
}

// --- logging hooks (called by the mutators in update.go, under wmu) ---

// logRecord appends one record to the attached WAL, if any. Called after
// argument validation and before any in-memory mutation, so the log
// contains exactly the operations that were applied, in order.
func (ix *Indexes) logRecord(kind storage.RecordKind, payload []byte) error {
	if ix.wal == nil {
		return nil
	}
	return ix.wal.Append(kind, payload)
}

// --- replay ---

// ApplyLogRecord decodes and applies one WAL record through the
// non-logging update paths. It is the replay half of recovery; applying
// a record that was logged by a hook on the same state is exactly the
// original mutation. Each replayed record runs through the same
// clone-apply-publish cycle as a live mutation, so partially decoded or
// failing records leave the published state untouched. Checkpoint
// markers are no-ops here (recovery interprets them before replay).
func (ix *Indexes) ApplyLogRecord(rec storage.Record) error {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	draft, err := ix.cur.Load().replayRecord(rec)
	if err != nil {
		return err
	}
	if draft != nil {
		ix.publish(draft)
		ix.notifyCommit(draft.version, rec.Kind, RecordOps(rec.Kind, rec.Payload), rec.Payload)
	}
	return nil
}

// ApplyShippedRecord applies one log-shipped commit record at an exact
// version boundary: the record must publish version next, which must be
// the current version + 1 (checked under the writer mutex, so concurrent
// appliers cannot interleave between check and publish). Unlike
// ApplyLogRecord — whose records are already in the local log — a
// shipped record arrives from elsewhere (a leader's WATCH stream or WAL
// file), so it is appended to the attached write-ahead log, if any,
// before the draft is published: a follower's own snapshot/log pair then
// recovers to exactly the prefix of the leader's history it durably
// applied, and its commit hook re-publishes the stream for downstream
// subscribers.
func (ix *Indexes) ApplyShippedRecord(next uint64, rec storage.Record) error {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	cur := ix.cur.Load()
	if next != cur.version+1 {
		return fmt.Errorf("%w: at version %d, shipped record publishes %d", ErrVersionGap, cur.version, next)
	}
	draft, err := cur.replayRecord(rec)
	if err != nil {
		return err
	}
	if draft == nil {
		return fmt.Errorf("core: shipped record kind %v is not a commit", rec.Kind)
	}
	if err := ix.logRecord(rec.Kind, rec.Payload); err != nil {
		return err
	}
	ix.publish(draft)
	ix.notifyCommit(draft.version, rec.Kind, RecordOps(rec.Kind, rec.Payload), rec.Payload)
	return nil
}

// replayRecord validates and applies one record against a draft cloned
// from s, returning the draft (nil for marker records).
func (s *Snapshot) replayRecord(rec storage.Record) (*Snapshot, error) {
	switch rec.Kind {
	case storage.RecCheckpoint:
		return nil, nil
	case storage.RecTextBatch:
		updates, err := decodeTextBatch(rec.Payload)
		if err != nil {
			return nil, err
		}
		if err := s.validateTexts(updates); err != nil {
			return nil, fmt.Errorf("core: replaying text batch: %w", err)
		}
		draft := s.draft(writesNodes)
		if err := draft.applyTexts(updates); err != nil {
			return nil, err
		}
		return draft, nil
	case storage.RecAttrUpdate:
		a, value, err := decodeAttrUpdate(rec.Payload)
		if err != nil {
			return nil, err
		}
		if err := s.validateAttr(a); err != nil {
			return nil, fmt.Errorf("core: replaying attr update: %w", err)
		}
		draft := s.draft(writesAttrs)
		draft.applyAttr(a, value)
		return draft, nil
	case storage.RecDelete:
		n, err := decodeDelete(rec.Payload)
		if err != nil {
			return nil, err
		}
		if err := s.validateDelete(n); err != nil {
			return nil, fmt.Errorf("core: replaying delete: %w", err)
		}
		draft := s.draft(writesStructure)
		if err := draft.applyDelete(n); err != nil {
			return nil, err
		}
		return draft, nil
	case storage.RecInsert:
		parent, pos, frag, err := decodeInsert(rec.Payload)
		if err != nil {
			return nil, err
		}
		if err := s.validateInsert(parent, pos, frag); err != nil {
			return nil, fmt.Errorf("core: replaying insert: %w", err)
		}
		draft := s.draft(writesStructure)
		if _, err := draft.applyInsert(parent, pos, frag); err != nil {
			return nil, err
		}
		return draft, nil
	default:
		return nil, fmt.Errorf("core: unknown WAL record kind %v", rec.Kind)
	}
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
		if err := w.Append(storage.RecCheckpoint, encodeCheckpoint(ix.walGen.Load())); err != nil {
			return fail(err)
		}
	default:
		for _, rec := range tail {
			if err := ix.ApplyLogRecord(rec); err != nil {
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
			if err := w.Append(storage.RecCheckpoint, encodeCheckpoint(ix.walGen.Load())); err != nil {
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
			gen, err := decodeCheckpoint(records[i].Payload)
			if err != nil {
				return 0, nil, fmt.Errorf("core: reading checkpoint marker: %w", err)
			}
			return gen, records[i+1:], nil
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
		if err := ix.ApplyLogRecord(rec); err != nil {
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
	if err := ix.wal.Append(storage.RecCheckpoint, encodeCheckpoint(ix.walGen.Load())); err != nil {
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
