package xmlvi

// Log shipping and point-in-time opens: the public surface follower
// replicas (internal/replica, cmd/xvid -follow) build on.
//
// A Change (see watch.go) is one commit's write-ahead-log record. Every
// write — live, recovered, shipped or replayed for time travel — is one
// such record applied by one commit function in internal/core, so a
// follower that feeds a leader's committed-change stream (a WATCH
// subscription, or a tailed WAL file) through ApplyChange runs exactly
// what the leader ran and reconstructs every published leader state in
// order, byte for byte. OpenAt is the offline form: replay the durable
// log's tail up to a cut version, yielding the state as of that commit.

import (
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/txn"
)

// ErrVersionGap is returned by ApplyChange when the change does not
// extend the document's current version by exactly one. The applier has
// missed or duplicated a record and must resynchronise (re-subscribe
// from its current version, or re-seed) instead of applying out of
// order.
var ErrVersionGap = core.ErrVersionGap

// ErrVersionBeforeSnapshot is returned by OpenAt for versions older than
// the snapshot: the records that produced them were compacted away by a
// checkpoint.
var ErrVersionBeforeSnapshot = core.ErrVersionBeforeSnapshot

// ErrVersionInFuture is returned by OpenAt for versions newer than the
// durable log's last record.
var ErrVersionInFuture = core.ErrVersionInFuture

// ApplyChange commits one shipped record to the document at exactly the
// matching version boundary: c.Version must be Version()+1, or the apply
// fails with ErrVersionGap and no state changes. The record is decoded
// and handed to the same commit a live mutation runs: validated against
// the current state (a field that names no node, or overflows its id
// type, is rejected with no state change), applied to a copy-on-write
// draft, and published with one pointer swap — readers keep their pinned
// snapshots, and the commit observer (OnCommit) sees it like any other
// commit, so a follower re-publishes the leader's stream to its own
// subscribers. Ops is informational; the record decides what is applied.
//
// On a durable document (Options.WAL after the first Save, or
// OpenDurable) the record is appended to the document's own write-ahead
// log before it is published: a follower's local snapshot/log pair then
// recovers — after a crash mid-apply — to exactly the prefix of the
// leader's history it durably applied, and resuming the subscription
// from Version() continues with no duplicate or missing record.
//
// ApplyChange must not race the document's own mutating methods: a
// replica is either a follower (all writes arrive as shipped changes) or
// a leader (all writes are local), never both.
func (d *Document) ApplyChange(c Change) error {
	return d.ix.ApplyShippedRecord(c.Version, storage.Record{Kind: c.Kind, Payload: c.Payload})
}

// OpenAt opens the state of a durable document as of an exact version
// ("time travel"): the snapshot is loaded and the write-ahead log's tail
// is replayed only up to the commit that published version. The result
// is byte-identical (Pinned.Save) to a document that stopped committing
// at that version.
//
// The returned document is a detached in-memory replica of one
// historical state: no log is attached, so mutating it affects neither
// the snapshot nor the log it was opened from. version must lie in the
// durable window — at or after the snapshot's version
// (ErrVersionBeforeSnapshot; earlier states were compacted away by a
// checkpoint) and at or before the last durably logged commit
// (ErrVersionInFuture). Opening is safe while a live writer appends to
// the same log.
func OpenAt(snapshotPath, walPath string, version uint64) (*Document, error) {
	ix, err := core.OpenAt(snapshotPath, walPath, version)
	if err != nil {
		return nil, err
	}
	return &Document{ix: ix, mgr: txn.NewManager(ix)}, nil
}

// LoadWithOptions is Load with explicit options. Index selection is
// determined by the snapshot; the planner mode and the WAL fields are
// consulted, so a loaded document can be made durable: with Options.WAL
// set, the first Save writes the recovery baseline and attaches the log,
// exactly as for a parsed document. This is how a follower turns a
// fetched seed snapshot into its own durable snapshot/log pair.
func LoadWithOptions(path string, opts Options) (*Document, error) {
	ix, err := core.Load(path)
	if err != nil {
		return nil, err
	}
	return &Document{ix: ix, mgr: txn.NewManager(ix), planner: opts.Planner,
		walPath: opts.WAL, walSyncEvery: opts.WALSyncEvery}, nil
}

// Save writes the pinned version to a snapshot file at path — the plain
// (generation-0) snapshot encoding, exactly the bytes Document.Save
// produces for this state on a log-less document. Because a Pinned is
// immutable, Save serialises precisely the pinned version even while
// later commits keep publishing; two documents at the same version with
// equal state produce equal files, which is what the replication
// equivalence tests assert.
func (p *Pinned) Save(path string) error { return p.snap.Save(path) }
