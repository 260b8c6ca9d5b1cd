package storage

// Write-ahead log: an append-only file of CRC-framed records that makes
// index updates durable between snapshots. The framing reuses the
// pagefile's conventions (little-endian fixed headers, CRC32/IEEE), but
// records are variable-length — a log is written once per operation and
// read once at recovery, so page alignment buys nothing here.
//
// Layout:
//
//	bytes 0..7:   magic "XVIWAL01"
//	then records: [u32 payload length][u32 CRC32(kind ∥ payload)]
//	              [u8 kind][payload]
//
// The CRC covers the kind byte and the payload, so a torn write — a
// record whose tail never reached the disk, or whose sectors landed
// partially — is detected and treated as the end of the log: everything
// before it is replayed, the torn record and anything after it is
// discarded. OpenWAL truncates such a tail so subsequent appends extend
// a clean log.
//
// Durability is batched: Append counts records and calls fsync once
// every SyncEvery appends (and on Close). Larger batches amortise the
// fsync — the dominant cost of a durable update — at the price of the
// tail of the batch being lost on a crash. Lost records are never
// half-applied: the CRC framing makes record durability atomic.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

const (
	walMagic = "XVIWAL01"
	// walFrameSize is the fixed per-record framing overhead:
	// u32 length + u32 crc + u8 kind.
	walFrameSize = 9
	// walMaxRecord bounds a single record payload (sanity check against
	// reading a garbage length from a corrupt frame).
	walMaxRecord = 1 << 30
)

// RecordKind tags the operation a WAL record encodes. The payload format
// of each kind is owned by the layer that writes it (internal/core); the
// storage layer only frames and checksums. It is the one kind type from
// the log to the wire: the public change stream (xmlvi.ChangeKind) and
// the WATCH protocol's "kind" field carry it, by the names below.
type RecordKind uint8

const (
	// RecCheckpoint marks a snapshot boundary: everything before it is
	// contained in the snapshot the marker's generation names. Written as
	// the first record of a freshly reset log.
	RecCheckpoint RecordKind = 1
	// RecTextBatch is a batch of text-node value updates (one per
	// UpdateTexts call — and therefore one per transaction commit).
	RecTextBatch RecordKind = 2
	// RecAttrUpdate is a single attribute value update.
	RecAttrUpdate RecordKind = 3
	// RecDelete is a subtree deletion.
	RecDelete RecordKind = 4
	// RecInsert is a fragment insertion.
	RecInsert RecordKind = 5
)

// recordKindNames is the one name table of the record kinds.
var recordKindNames = [...]string{
	RecCheckpoint: "checkpoint",
	RecTextBatch:  "texts",
	RecAttrUpdate: "attr",
	RecDelete:     "delete",
	RecInsert:     "insert",
}

func (k RecordKind) String() string {
	if int(k) < len(recordKindNames) && recordKindNames[k] != "" {
		return recordKindNames[k]
	}
	return fmt.Sprintf("RecordKind(%d)", uint8(k))
}

// MarshalText renders the kind by name, so JSON carries "texts", "attr",
// "delete" or "insert".
func (k RecordKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText accepts a kind name.
func (k *RecordKind) UnmarshalText(b []byte) error {
	for i, name := range recordKindNames {
		if name != "" && name == string(b) {
			*k = RecordKind(i)
			return nil
		}
	}
	return fmt.Errorf("storage: unknown record kind %q", b)
}

// Record is one framed WAL entry.
type Record struct {
	Kind    RecordKind
	Payload []byte
}

// WAL is an open write-ahead log positioned for appending. It is not
// safe for concurrent use; callers serialise through their own write
// lock (core.Indexes appends under its update mutex).
type WAL struct {
	f    *os.File
	path string
	size int64 // current valid length in bytes

	// SyncEvery batches fsyncs: the file is synced once every SyncEvery
	// appends. 1 (or 0) syncs every record — the safest and slowest
	// setting.
	syncEvery int
	pending   int

	// err is sticky: the first I/O failure poisons the log, and every
	// subsequent operation returns it. Fail-stop is the only sound
	// response — after a failed write or fsync the log's tail state is
	// unknown, so pretending later appends are durable would break the
	// recovery contract.
	err error

	frame [walFrameSize]byte
}

// fail records the first I/O error and returns it.
func (w *WAL) fail(err error) error {
	if w.err == nil {
		w.err = err
	}
	return w.err
}

// CreateWAL creates (truncating) a write-ahead log at path. syncEvery
// <= 1 syncs after every append.
func CreateWAL(path string, syncEvery int) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	w := &WAL{f: f, path: path, syncEvery: syncEvery}
	if _, err := f.WriteAt([]byte(walMagic), 0); err != nil {
		f.Close()
		return nil, err
	}
	w.size = int64(len(walMagic))
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// OpenWAL opens an existing log (creating an empty one if absent), scans
// its records, repairs a torn tail by truncating it, and returns the
// valid records in append order together with the log positioned for
// appending.
func OpenWAL(path string, syncEvery int) (*WAL, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	w := &WAL{f: f, path: path, syncEvery: syncEvery}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if st.Size() < int64(len(walMagic)) {
		// Empty or torn-at-birth log: rewrite the header.
		if _, err := f.WriteAt([]byte(walMagic), 0); err != nil {
			f.Close()
			return nil, nil, err
		}
		w.size = int64(len(walMagic))
		if err := f.Truncate(w.size); err != nil {
			f.Close()
			return nil, nil, err
		}
		return w, nil, nil
	}
	var magicBuf [len(walMagic)]byte
	if _, err := f.ReadAt(magicBuf[:], 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	if string(magicBuf[:]) != walMagic {
		f.Close()
		return nil, nil, fmt.Errorf("%w: bad WAL magic", ErrCorrupt)
	}
	records, end, err := scanRecords(f, int64(len(walMagic)), st.Size())
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if end < st.Size() {
		// Torn or corrupt tail: drop it so future appends extend a log
		// whose every byte is a valid record.
		if err := f.Truncate(end); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	w.size = end
	return w, records, nil
}

// scanRecords reads frames from off to fileSize, stopping at the first
// invalid one. It returns the valid records and the offset one past the
// last valid record.
func scanRecords(r io.ReaderAt, off, fileSize int64) ([]Record, int64, error) {
	var records []Record
	var frame [walFrameSize]byte
	for {
		if off+walFrameSize > fileSize {
			return records, off, nil // torn frame header (or clean EOF)
		}
		if _, err := r.ReadAt(frame[:], off); err != nil {
			return nil, 0, err
		}
		length := int64(binary.LittleEndian.Uint32(frame[0:]))
		want := binary.LittleEndian.Uint32(frame[4:])
		kind := RecordKind(frame[8])
		if length > walMaxRecord || off+walFrameSize+length > fileSize {
			return records, off, nil // torn payload
		}
		payload := make([]byte, length)
		if _, err := r.ReadAt(payload, off+walFrameSize); err != nil {
			return nil, 0, err
		}
		crc := crc32.ChecksumIEEE(frame[8:9])
		crc = crc32.Update(crc, crc32.IEEETable, payload)
		if crc != want {
			return records, off, nil // torn or bit-rotted record
		}
		records = append(records, Record{Kind: kind, Payload: payload})
		off += walFrameSize + length
	}
}

// Append frames one record and writes it at the end of the log, syncing
// per the batching policy. The record is durable once the batch it
// belongs to has been synced (immediately when SyncEvery <= 1).
func (w *WAL) Append(kind RecordKind, payload []byte) error {
	if w.err != nil {
		return w.err
	}
	if len(payload) > walMaxRecord {
		return fmt.Errorf("storage: WAL record of %d bytes exceeds limit", len(payload))
	}
	preSize := w.size
	binary.LittleEndian.PutUint32(w.frame[0:], uint32(len(payload)))
	crc := crc32.ChecksumIEEE([]byte{byte(kind)})
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	binary.LittleEndian.PutUint32(w.frame[4:], crc)
	w.frame[8] = byte(kind)
	if _, err := w.f.WriteAt(w.frame[:], w.size); err != nil {
		return w.fail(err)
	}
	if _, err := w.f.WriteAt(payload, w.size+walFrameSize); err != nil {
		return w.fail(err)
	}
	w.size += walFrameSize + int64(len(payload))
	w.pending++
	if w.syncEvery <= 1 || w.pending >= w.syncEvery {
		if err := w.syncNow(); err != nil {
			// The record is written but not durable, and the caller will
			// treat the operation as failed and not apply it: drop the
			// record (best effort — the log is poisoned either way) so
			// recovery cannot replay an operation that never happened.
			w.f.Truncate(preSize)
			w.size = preSize
			return err
		}
	}
	return nil
}

// Sync forces pending records to stable storage. A failure poisons the
// log: the unsynced records stay pending and every later operation
// reports the error, so a caller can never be told a lost tail is
// durable.
func (w *WAL) Sync() error {
	if w.err != nil {
		return w.err
	}
	if w.pending == 0 {
		return nil
	}
	return w.syncNow()
}

func (w *WAL) syncNow() error {
	if err := w.f.Sync(); err != nil {
		return w.fail(err)
	}
	w.pending = 0
	return nil
}

// Reset truncates the log back to its header — everything logged so far
// is forgotten — and syncs. Used by checkpointing after the snapshot
// that contains those records has been durably written.
func (w *WAL) Reset() error {
	if w.err != nil {
		return w.err
	}
	if err := w.f.Truncate(int64(len(walMagic))); err != nil {
		return w.fail(err)
	}
	w.size = int64(len(walMagic))
	w.pending = 0
	if err := w.f.Sync(); err != nil {
		return w.fail(err)
	}
	return nil
}

// Size reports the current length of the log in bytes (header included).
func (w *WAL) Size() int64 { return w.size }

// Path reports the log's file path.
func (w *WAL) Path() string { return w.path }

// Close syncs pending records and closes the file.
func (w *WAL) Close() error {
	if err := w.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// ReplayWAL reads the records of the log at path without opening it for
// writing: every valid record in order, stopping silently at the first
// torn or corrupt one (recovery semantics). A missing file replays zero
// records.
func ReplayWAL(path string, fn func(Record) error) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.Size() < int64(len(walMagic)) {
		return nil
	}
	var magicBuf [len(walMagic)]byte
	if _, err := f.ReadAt(magicBuf[:], 0); err != nil {
		return err
	}
	if string(magicBuf[:]) != walMagic {
		return fmt.Errorf("%w: bad WAL magic", ErrCorrupt)
	}
	records, _, err := scanRecords(f, int64(len(walMagic)), st.Size())
	if err != nil {
		return err
	}
	for _, rec := range records {
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}
