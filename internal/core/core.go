// Package core implements the paper's primary contribution: generic,
// updatable XML value indices over an entire document.
//
// Every index is one family (family.go): a state per node and attribute,
// set from a leaf's value and folded from children to parents, plus the
// keys each posting contributes to a B+tree. A snapshot holds three kinds
// of family, in this order:
//
//   - the string equi-index (hash.go): the 32-bit hash H of every node's
//     string value, folded with the associative combination function C,
//     keyed by hash;
//   - one typed range index per enabled entry of the type registry
//     (typed.go, registry.go): per-node FSM state (monoid element) with
//     fragment descriptors, folded through the SCT, keyed by the
//     order-encoded value of castable nodes. The built-in registrations
//     are xs:double, xs:dateTime, and xs:date; further ordered types plug
//     in through RegisterType with no new control flow in this package;
//   - the q-gram substring index once enabled (substr.go): leaf-only, keyed
//     by the grams of each text and attribute value.
//
// Build is one depth-first pass over all families (Figure 7 of the
// paper); every commit captures a posting's keys in every family,
// recomputes its state and its ancestors' (Figure 8), and repairs every
// tree with one sorted key diff. Verify, stats, memory accounting and
// persistence are the same loop. Rejected nodes store no state (absence =
// reject), as in the paper. Comments and processing instructions carry
// their own values but do not contribute to ancestors, per the XQuery
// data model.
package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/fsm"
	"repro/internal/pcol"
	"repro/internal/storage"
	"repro/internal/xmltree"
)

// Options selects which indices to build: the string equi-index and
// the registered typed indexes listed in Types.
type Options struct {
	String bool
	// Types lists the registered typed indexes to build. Unknown IDs are
	// ignored.
	Types []TypeID
	// Parallelism bounds the number of worker goroutines Build,
	// EnableSubstring and VerifyLeaves use. 0 means
	// runtime.GOMAXPROCS(0); 1 selects the serial reference path (the
	// paper's Figure 7 loop, kept as the oracle the parallel path is
	// property-tested against); negative values are treated as 0. Any
	// setting produces identical indexes — down to snapshot bytes.
	// It is not persisted in snapshots: Load and what it loads run on
	// GOMAXPROCS workers.
	Parallelism int
}

// Posting identifies an indexed node: either a tree node or an attribute.
type Posting struct {
	Node   xmltree.NodeID
	Attr   xmltree.AttrID
	IsAttr bool
}

// NodePosting wraps a tree node id.
func NodePosting(n xmltree.NodeID) Posting { return Posting{Node: n} }

// AttrPosting wraps an attribute id.
func AttrPosting(a xmltree.AttrID) Posting { return Posting{Attr: a, IsAttr: true} }

// Postings are packed into the B+tree's uint32 value as (id << 1 | isAttr).
// Stable ids (not pre-order ranks) are stored so structural updates do not
// invalidate the trees.
func packPosting(stable uint32, isAttr bool) uint32 {
	p := stable << 1
	if isAttr {
		p |= 1
	}
	return p
}

func unpackPosting(p uint32) (stable uint32, isAttr bool) { return p >> 1, p&1 == 1 }

// Snapshot is one immutable published version of the value indices over
// one version of the document. Readers obtain a Snapshot from
// Indexes.Snapshot (or implicitly through the Indexes read wrappers) and
// can use it for any read — lookups, ranges, Verify, Stats, Save —
// without synchronization, for as long as they like: a Snapshot is never
// mutated after it is published. Writers build the next version as a
// private copy-on-write clone of the current one (see update.go) and
// publish it with one atomic pointer swap on the owning Indexes.
type Snapshot struct {
	doc  *xmltree.Doc
	opts Options

	// version is the publication sequence number: Build produces
	// version 1, Load restores the sequence number the snapshot was
	// saved at (1 for snapshots predating version persistence), and
	// every committed mutation increments it by one. It doubles as the
	// commit-sequence token the network server hands to clients.
	version uint64

	// Stable node ids: postings in the B+trees survive structural updates.
	// stableOf[pre] is the node's stable id; preOf[stable] is the current
	// pre rank or -1 once deleted. Attributes get their own spaces.
	stableOf     pcol.Dense[uint32]
	preOf        pcol.Dense[int32]
	attrStableOf pcol.Dense[uint32]
	attrOf       pcol.Dense[int32]

	// fams holds the index families in snapshot order (see family.go):
	// the string hash family when Options.String, one typed family per
	// enabled registry entry in registry order, then the substring gram
	// family once enabled. All per-index control flow in this package is
	// iteration over this slice.
	fams        []family
	blockStarts pcol.Sparse[[]int32] // refold partials' block starts (partials.go)

	// Key buffers reused by the commit paths. They are only ever touched
	// by the single serialized writer preparing the next version (never
	// by readers), so sharing them across drafts is safe.
	scratchOld [][]uint64
	scratchNew []uint64
}

// Indexes bundles a document with its value indices. All updates to the
// document must go through Indexes methods so the indices stay consistent.
//
// # Concurrency
//
// Indexes is multi-version: the current index state lives in an
// atomically swapped *Snapshot. Every read entry point — LookupString
// and friends, the Range/Scan lookups, TypedFrag and the typed value
// accessors, Query planning, Verify, Stats, Save, SavePartsTo — loads
// the current snapshot once and runs entirely against it, so reads are
// lock-free, never block writers, are never blocked by writers, and
// always observe one fully published version (no torn reads).
//
// Every write is one commit of one change — its log record — through
// one function (commit, update.go): the mutating methods (UpdateText,
// UpdateTexts, UpdateAttr, DeleteSubtree, InsertChildren) build the
// change, and ApplyShippedRecord decodes it for recovery, followers and
// OpenAt. A commit serializes on an internal writer mutex, clones the
// columns the change writes off the current snapshot (B+trees share
// structure via path copying), applies it to the private draft, and
// publishes it with one atomic store. Retired versions are reclaimed by
// the garbage collector once the last reader drops its snapshot
// reference — Go's reachability acts as the epoch.
//
// For multi-statement write transactions with conflict detection, use
// the txn layer: each transaction commits as one text-batch change.
type Indexes struct {
	cur atomic.Pointer[Snapshot]

	// wmu serializes writers: mutations, checkpoints, and WAL
	// generation changes. Readers never take it.
	wmu sync.Mutex

	opts Options

	// Durability (see durable.go). wal, when attached, receives each
	// commit's record before the commit is applied; walGen
	// pairs the log with the snapshot generation it extends, and
	// snapshotPath is where Checkpoint rewrites the snapshot. All are
	// writer-side state guarded by wmu (walGen additionally atomic for
	// the lock-free WALGeneration accessor).
	wal          *storage.WAL
	walGen       atomic.Uint64
	snapshotPath string

	// onCommit, when set, observes every published commit (guarded by
	// wmu; invoked under it, so notifications arrive in version order
	// with no gaps). See SetCommitHook.
	onCommit CommitHook

	// recoveredTail holds the WAL records OpenDurable replayed, for
	// consumers (the network server's watch hub) that re-publish the
	// commit stream after a restart. Set once before the Indexes is
	// shared; read-only afterwards.
	recoveredTail []storage.Record
}

// CommitHook observes one published commit: the new version, the WAL
// record kind and payload encoding the mutation (the canonical WAL
// encoding, produced whether or not a log is attached), and the number
// of logical operations the record carries (the batch size for text
// batches, 1 otherwise). Hooks run synchronously under the writer mutex
// — after the version is published, before the mutating call returns —
// so they observe commits in exact version order and must not block or
// re-enter the Indexes' mutating methods.
type CommitHook func(version uint64, kind storage.RecordKind, ops int, payload []byte)

// SetCommitHook installs fn as the commit observer (nil clears it).
// Only one hook is supported; installing replaces the previous one.
func (ix *Indexes) SetCommitHook(fn CommitHook) {
	ix.wmu.Lock()
	ix.onCommit = fn
	ix.wmu.Unlock()
}

// notifyCommit runs the commit hook, if any. Callers hold wmu and have
// already published version.
func (ix *Indexes) notifyCommit(version uint64, kind storage.RecordKind, ops int, payload []byte) {
	if ix.onCommit != nil {
		ix.onCommit(version, kind, ops, payload)
	}
}

// RecoveredTail returns the write-ahead log records OpenDurable replayed
// while recovering this index set, in replay order: record i produced
// version base+1+i, where base is the loaded snapshot's version. Nil for
// index sets that were not recovered, or whose log had no tail.
func (ix *Indexes) RecoveredTail() []storage.Record { return ix.recoveredTail }

// RecoveredCommits hands fn the commits of RecoveredTail in replay
// order, as the commit hook observed them live: record i published
// version base+1+i, where base is the current version minus the tail's
// length — so call it before committing anything further.
func (ix *Indexes) RecoveredCommits(fn CommitHook) {
	base := ix.Version() - uint64(len(ix.recoveredTail))
	for i, rec := range ix.recoveredTail {
		ch, err := decode(rec)
		if err != nil {
			continue // unreachable: the record decoded once during replay
		}
		fn(base+1+uint64(i), rec.Kind, ch.ops(), rec.Payload)
	}
}

// wrapSnapshot publishes s as version 1 of a fresh Indexes handle.
func wrapSnapshot(s *Snapshot) *Indexes {
	if s.version == 0 {
		s.version = 1
	}
	ix := &Indexes{opts: s.opts}
	ix.cur.Store(s)
	return ix
}

// Snapshot returns the current published version. The returned value is
// immutable and remains valid (and consistent) indefinitely; callers
// that issue several reads which must observe the same version should
// capture one Snapshot and issue them all against it.
func (ix *Indexes) Snapshot() *Snapshot { return ix.cur.Load() }

// Version reports the current publication sequence number (1 for a
// freshly built Indexes, the persisted sequence for a loaded one, +1 per
// committed mutation).
func (ix *Indexes) Version() uint64 { return ix.cur.Load().version }

// Version reports the snapshot's publication sequence number.
func (s *Snapshot) Version() uint64 { return s.version }

// publish installs the draft as the current version. Callers must hold
// wmu and must have built draft against the snapshot that is still
// current.
func (ix *Indexes) publish(draft *Snapshot) {
	ix.cur.Store(draft)
}

// Doc returns the indexed document. Treat it as read-only; mutate through
// Indexes methods.
func (ix *Snapshot) Doc() *xmltree.Doc { return ix.doc }

// Options reports which indices were built.
func (ix *Snapshot) Options() Options { return ix.opts }

// NodeHash returns the stored hash of node n's string value (0 when the
// string index was not built).
func (ix *Snapshot) NodeHash(n xmltree.NodeID) uint32 {
	if h := ix.hashes(); h != nil {
		return h.col[0].At(int(n))
	}
	return 0
}

// hashes returns the string hash family, nil when it was not built.
func (ix *Snapshot) hashes() *hashFamily {
	if len(ix.fams) == 0 {
		return nil
	}
	h, _ := ix.fams[0].(*hashFamily)
	return h
}

// grams returns the substring gram family, nil until enabled.
func (ix *Snapshot) grams() *gramFamily {
	if len(ix.fams) == 0 {
		return nil
	}
	g, _ := ix.fams[len(ix.fams)-1].(*gramFamily)
	return g
}

// typedFams returns the typed families, in registry order.
func (ix *Snapshot) typedFams() []*typedFamily {
	var out []*typedFamily
	for _, f := range ix.fams {
		if t, ok := f.(*typedFamily); ok {
			out = append(out, t)
		}
	}
	return out
}

// typedFor returns the typed family maintaining type id, or nil when it
// was not enabled at build time.
func (ix *Snapshot) typedFor(id TypeID) *typedFamily {
	for _, f := range ix.fams {
		if t, ok := f.(*typedFamily); ok && t.spec.ID == id {
			return t
		}
	}
	return nil
}

// TypedIDs lists the typed indexes built for this document, in registry
// order.
func (ix *Snapshot) TypedIDs() []TypeID {
	var out []TypeID
	for _, t := range ix.typedFams() {
		out = append(out, t.spec.ID)
	}
	return out
}

// HasTyped reports whether typed index id was built.
func (ix *Snapshot) HasTyped(id TypeID) bool { return ix.typedFor(id) != nil }

// HasString reports whether the string equi-index was built.
func (ix *Snapshot) HasString() bool { return ix.hashes() != nil }

// TypedFrag returns node n's fragment under typed index id; ok is false
// when the index was not built or the node is rejected. The registered
// type's value extractor (fsm.DoubleValue, fsm.DateValue, …) turns the
// fragment into a typed value.
func (ix *Snapshot) TypedFrag(id TypeID, n xmltree.NodeID) (fsm.Frag, bool) {
	t := ix.typedFor(id)
	if t == nil {
		return fsm.Frag{}, false
	}
	f := t.frag(ix, NodePosting(n))
	return f, f.Elem != fsm.Reject
}

// NodeOfStable resolves a stable id to the current pre rank, or
// xmltree.InvalidNode if the node was deleted.
func (ix *Snapshot) NodeOfStable(s uint32) xmltree.NodeID { return xmltree.NodeID(ix.posOf(0, s)) }

// AttrOfStable resolves a stable attribute id, or xmltree.InvalidAttr.
func (ix *Snapshot) AttrOfStable(s uint32) xmltree.AttrID { return xmltree.AttrID(ix.posOf(1, s)) }

// posOf returns stable id s's position on side, or -1 — InvalidNode and
// InvalidAttr — when no live posting has it.
func (ix *Snapshot) posOf(side int, s uint32) int32 {
	if _, pos := ix.stableIDs(side); int(s) < pos.Len() {
		return pos.At(int(s))
	}
	return -1
}

func (ix *Snapshot) resolve(packed uint32) (Posting, bool) {
	stable, isAttr := unpackPosting(packed)
	if isAttr {
		a := ix.AttrOfStable(stable)
		if a == xmltree.InvalidAttr {
			return Posting{}, false
		}
		return AttrPosting(a), true
	}
	n := ix.NodeOfStable(stable)
	if n == xmltree.InvalidNode {
		return Posting{}, false
	}
	return NodePosting(n), true
}
