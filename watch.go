package xmlvi

// Version tokens, pinned-snapshot reads, and the committed-change
// stream: the public surface the network server (cmd/xvid) builds on.
//
// Every committed mutation publishes a new MVCC version (see the
// concurrency section in doc.go); Version exposes the current sequence
// number as a commit-sequence token, Pin captures one version for a
// multi-read request, and OnCommit/RecoveredChanges expose the ordered
// stream of committed change records — the write-ahead log, viewed live.

import (
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/xpath"
)

// Version reports the document's current publication sequence number: 1
// for a freshly parsed document, +1 per committed mutation. For durable
// documents the sequence survives Save/Load and checkpoint/recovery, so
// a version number is a stable commit-sequence token: version v names
// the state after exactly v-1 commits since the document was first
// built. Tokens order commits (later commit ⇒ larger version) and are
// what the network protocol uses for read-your-writes and WATCH resume.
func (d *Document) Version() uint64 { return d.ix.Version() }

// ChangeKind tags the mutation a committed Change carries: it is the
// kind of the commit's write-ahead-log record, one type from the log to
// the wire. Its String and JSON form are "texts", "attr", "delete" and
// "insert".
type ChangeKind = storage.RecordKind

const (
	// ChangeTexts is a batch of text-node value updates — one commit,
	// and therefore one Change, per UpdateTexts call or transaction.
	ChangeTexts = storage.RecTextBatch
	// ChangeAttr is a single attribute value update.
	ChangeAttr = storage.RecAttrUpdate
	// ChangeDelete is a subtree deletion.
	ChangeDelete = storage.RecDelete
	// ChangeInsert is a fragment insertion.
	ChangeInsert = storage.RecInsert
)

// Change is one committed mutation: the version it published, its kind,
// the number of logical operations it batched (text updates for
// ChangeTexts, 1 otherwise), and the canonical write-ahead-log payload
// encoding the mutation — the same bytes a WAL replay applies, usable
// for change shipping. A sequence of Changes with consecutive versions
// reconstructs every published state between its endpoints.
type Change struct {
	Version uint64
	Kind    ChangeKind
	Ops     int
	Payload []byte
}

// OnCommit installs fn as the document's commit observer (nil clears
// it); only one observer is supported. fn runs synchronously inside the
// committing call, after the new version is published, so it sees every
// commit exactly once in version order with no gaps — the property WATCH
// streams are built on. It must return quickly and must not call the
// document's mutating methods.
func (d *Document) OnCommit(fn func(Change)) {
	if fn == nil {
		d.ix.SetCommitHook(nil)
		return
	}
	d.ix.SetCommitHook(func(version uint64, kind ChangeKind, ops int, payload []byte) {
		fn(Change{Version: version, Kind: kind, Ops: ops, Payload: payload})
	})
}

// RecoveredChanges returns the committed changes OpenDurable replayed
// from the write-ahead log's tail while recovering this document, with
// their versions: the commit stream between the snapshot's version and
// Version() at open. A server seeds its WATCH history from this so
// subscribers can resume across a restart without missing or duplicated
// records. Nil for documents that were not recovered (or had no tail).
func (d *Document) RecoveredChanges() []Change {
	var out []Change
	d.ix.RecoveredCommits(func(version uint64, kind ChangeKind, ops int, payload []byte) {
		out = append(out, Change{Version: version, Kind: kind, Ops: ops, Payload: payload})
	})
	return out
}

// Pinned is one pinned MVCC version of a Document: every read issued
// through it — however many, however long apart — observes the same
// published version, even while commits keep publishing newer ones.
// Obtain one with Pin. A Pinned is immutable, safe for concurrent use,
// and valid indefinitely; it is how a server gives each request one
// consistent snapshot (the reader-never-blocks guarantee, end to end).
type Pinned struct {
	snap    *core.Snapshot
	planner PlannerMode
}

// Pin captures the current published version for a sequence of reads.
func (d *Document) Pin() *Pinned {
	return &Pinned{snap: d.ix.Snapshot(), planner: d.planner}
}

// Version reports the pinned publication sequence number.
func (p *Pinned) Version() uint64 { return p.snap.Version() }

// Query evaluates an XPath expression against the pinned version; see
// Document.Query for the dialect and planner semantics.
func (p *Pinned) Query(expr string) ([]Result, error) {
	parsed, err := xpath.Parse(expr)
	if err != nil {
		return nil, err
	}
	ps, _, err := plan.Run(p.snap, parsed, p.planner)
	if err != nil {
		return nil, err
	}
	return pinnedResults(ps, p.snap), nil
}

// Explain plans and executes an XPath expression against the pinned
// version, returning the results with the executed plan tree; see
// Document.Explain.
func (p *Pinned) Explain(expr string) ([]Result, *Explain, error) {
	parsed, err := xpath.Parse(expr)
	if err != nil {
		return nil, nil, err
	}
	ps, pl, err := plan.Run(p.snap, parsed, p.planner)
	if err != nil {
		return nil, nil, err
	}
	return pinnedResults(ps, p.snap), pl, nil
}

// StringValue returns a node's XDM string value at the pinned version.
func (p *Pinned) StringValue(n Node) string { return p.snap.Doc().StringValue(n) }

// NumNodes reports the number of tree nodes at the pinned version.
func (p *Pinned) NumNodes() int { return p.snap.Doc().NumNodes() }

// pinnedResults binds postings to the document version they were
// computed against, so a Result stays valid even when later commits
// publish new versions.
func pinnedResults(ps []core.Posting, snap *core.Snapshot) []Result {
	out := make([]Result, len(ps))
	for i, pp := range ps {
		out[i] = Result{Node: pp.Node, Attr: pp.Attr, IsAttr: pp.IsAttr, doc: snap.Doc()}
	}
	return out
}
