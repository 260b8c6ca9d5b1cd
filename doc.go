// Package xmlvi is a Go implementation of the generic, updatable XML
// value indices of Sidirourgos & Boncz, "Generic and updatable XML value
// indices covering equality and range lookups" (EDBT 2009 / CWI report
// INS-E0802).
//
// Unlike conventional XML value indices, which require an administrator
// to declare indexed paths and types up front, these indices cover an
// entire document — every element, attribute, and text node — and respect
// the XQuery data model: the string value of an element is the
// concatenation of its descendant text nodes, so mixed content such as
//
//	<age><decades>4</decades>2<years/></age>
//
// correctly equals 42 in both string and numeric comparisons.
//
// # Index inventory
//
// Every index is one family of a single abstraction: a state per node
// and attribute, set from a leaf's value and folded from children to
// parents, plus the keys each node contributes to a B+tree. Three kinds
// of family are maintained together, in this order:
//
//   - the string equi-index: a 32-bit hash H with an associative
//     combination function C (H(a·b) = C(H(a), H(b))), so ancestor hashes
//     are maintained on update without re-reading any text; keyed by
//     hash;
//   - one typed range index per entry of the type registry
//     (internal/core.RegisterType). Each registered type contributes a
//     finite state machine accepting fragments of its lexical space —
//     combined across adjacent fragments through a state combination
//     table (SCT), a monoid whose Reject absorbs — and an
//     order-preserving key encoding for its value B+tree. The built-in
//     registrations are xs:double, xs:dateTime, and xs:date;
//   - the q-gram substring index, once enabled (see Substring search):
//     it folds nothing, and its keys are the grams of each text and
//     attribute value.
//
// The build pass, the incremental update algorithm (capture a node's
// keys, recompute its state and its ancestors', repair every tree with
// one sorted key diff), copy-on-write drafts, verification, statistics,
// memory accounting and snapshot persistence are each one loop over the
// families — none of them name a concrete index or type — and a typed
// index is selected (Options.Types, core.SaveParts), reported
// (IndexStats.TypedFor), planned and scanned by its TypeID alone. The
// paper's Section 4 claims the FSM/monoid machinery generalises to any
// ordered XML type; the registry is that claim made operational: within
// internal/core only registry.go names a built-in type. Outside core,
// the built-ins are still named by:
//
//   - the XPath literal syntax and its casts (numbers, xs:date("…"));
//   - the planner's literal→type mapping and its measured date verify
//     cost (costVerifyDate);
//   - this package's typed accessors (RangeDouble, RangeDate,
//     DoubleValue, …);
//   - the experiments' per-figure configurations.
//
// # Adding a new typed index
//
// To index another ordered type (xs:integer, xs:decimal, xs:boolean,
// xs:time, …):
//
//  1. Define the type's base DFA over byte classes and compile it into an
//     fsm.Machine (see internal/fsm/date.go for the complete model — the
//     monoid elements, SCT, and fragment algebra are derived
//     mechanically from the DFA).
//
//  2. Write a value extractor from a castable fragment's digit runs and
//     punctuation (see fsm.DateValue), and wrap it in a key encoder onto
//     a uint64 that preserves the type's order (btree.EncodeInt64 /
//     EncodeFloat64 cover the common domains).
//
//  3. Register the pieces under a fresh, never-reused TypeID:
//
//     core.RegisterType(core.TypeSpec{
//     ID:      42,                  // stable: it names snapshot sections
//     Name:    "integer",
//     Machine: fsm.Integer(),
//     Encode:  encodeInteger,
//     })
//
//  4. Enable it at build time by listing its TypeID in Options.Types
//     (core.DefaultOptions lists the three built-ins). Build,
//     UpdateText(s), UpdateAttr, Delete, InsertXML, Save, Load, Verify,
//     Stats and MemStats pick the type up unchanged; RangeTyped and
//     TypedRangeIter serve lookups by TypeID. For Query to reach it, the
//     XPath dialect needs a literal of the type and the planner a mapping
//     from that literal to the TypeID and its encoded key; the
//     operator→key-range logic is shared by every type.
//
// # Quick start
//
//	doc, err := xmlvi.Parse([]byte(`<person><age>4</age>2</person>`))
//	if err != nil { ... }
//	hits, err := doc.Query(`//person[. = 42]`)
//
// Range predicates use the typed indexes: numeric comparisons go to the
// xs:double index, and date comparisons — written with an explicit
// xs:date literal, as in
//
//	//person[birthday >= xs:date("1970-01-01")]
//
// — go to the xs:date index.
//
// Documents are updatable in place (text updates, subtree deletion and
// insertion) with index maintenance costs proportional to the update, not
// the document; they persist to a checksummed snapshot file (the
// document, the stable-id maps and each index's B+tree — typed trees in
// per-type sections keyed by stable type ID; the per-node index state is
// derived on load by the same fold that builds it) and support
// concurrent commutative transactions (Section 5.1 of the paper).
//
// # Query planning
//
// Query runs through an explicit three-stage pipeline (internal/plan):
// the parsed path is the logical plan; the planner turns it into a
// physical plan by enumerating one access path per indexable condition
// of the final step — hash equality on the string equi-index, a B+tree
// range on the matching typed index (one code path for every type: the
// literal maps to a TypeID and an encoded key, and each comparison
// operator to a key range), and a
// document scan as the universal fallback — and the executor drives the
// chosen tree. Plan IR: result ← verify ← (intersect ←)? access paths.
//
// Costing uses a per-index statistics layer maintained in core: the
// entry total, the distinct-key count, and a small equi-depth histogram
// over each B+tree's key space. Histogram bucket counts are adjusted
// exactly on every insert/delete; bucket bounds and distinct counts are
// refreshed once accumulated churn passes a quarter of the tree. The
// layer is derived data: Load rebuilds it from the trees, as Build
// does, and no snapshot stores it. Equality
// estimates are average cluster size capped by the covering bucket;
// range estimates interpolate linearly inside boundary buckets.
//
// The planner picks the access path with the lowest estimated
// cardinality as the driver, then greedily adds further selective paths
// as intersection inputs while streaming them (through core's posting
// iterators) into a context bitmap costs less than the per-context
// verification it saves. Every candidate surviving the bitmap is
// verified against the path structure and the full predicate list, so
// planned execution is result-identical to the scan evaluator — the
// equivalence property tests and FuzzQueryPlanned pin exactly that.
//
// The document scan is a column pass: each step's name resolves to a
// dictionary id once per query, a descendant step tests the kind and
// name columns in one loop over its context's pre/size range, and
// predicates read operand values as text-heap bytes. It needs no visit
// set: a child step over distinct parents yields distinct nodes, and a
// descendant step that skips contexts nested in the one before yields
// distinct nodes in document order, so a scan allocates for its hits
// and contexts, not per node.
//
// Costs are in one unit, one node or attribute visited by the document
// scan, so a scan costs N + A. An index arm is charged per estimated
// posting, a fetch plus a verification, and PlannerAuto scans when that
// charge is the larger: a wide range over a generic index streams
// postings of every path, which verification then discards. The
// constants are measured by a calibration test that fails when one
// drifts more than 2× from what it measures.
//
// Explain returns the executed plan tree; its String renders, per
// operator, the estimated cardinality next to the actual one:
//
//	result //person[income > 95000 and birthday < xs:date("1960-01-01")]  (est 2.4, actual 2)
//	└─ verify structure + remaining predicates  (est 2.4, actual 2)
//	   └─ intersect bitmap over candidate contexts  (est 2.4, actual 2)
//	      ├─ range(double) income > [0x..., 0x...]  [driver]  (est 3.0, actual 3)
//	      └─ range(date) birthday < [0x0, 0x...]  (est 2.0, actual 2)
//
// Options.Planner (and Document.SetPlanner, for loaded snapshots)
// selects the strategy: PlannerAuto (cost-based, the default),
// PlannerForceScan, and PlannerForceIndex — the last two are the arms
// of the scan-vs-index selectivity crossover ablation (xvibench -exp
// a6). The planner is the only route by which a query reaches an
// index: every read pins one Snapshot and runs plan.Run against it.
// Unsupported path shapes (attribute steps in the middle of a path)
// fail with ErrUnsupportedPath instead of silently returning nothing.
//
// # Substring search
//
// EnableSubstringIndex adds a positional q-gram index (q = 3 byte
// grams) over every text node and attribute value. It answers
// Document.Contains and Document.StartsWith, and it backs the XPath
// dialect's text predicates
//
//	//person[contains(emailaddress/text(), "mailto:w")]
//	//person[starts-with(@id, "person1")]
//
// which the planner costs as a substring access path — candidate
// postings from gram posting-list intersection, estimated through the
// same statistics layer as the value indexes, every candidate verified
// against the actual value — against the document scan. Only
// text()/attribute leaf operands are indexable: an element operand
// compares against the concatenated string value, which a single
// node's grams cannot witness, so those (and patterns shorter than q,
// and documents without the index) fall back to the scan, and the
// EXPLAIN plan carries a note saying which fallback fired and why.
// Results are identical either way.
//
// The index lives inside the MVCC Snapshot like every other index:
// each commit maintains it copy-on-write, Contains pins one published
// version, and the index rides snapshot persistence — Save/Load,
// checkpoints, crash recovery, point-in-time OpenAt, and follower
// replication all preserve it. Enabling does not publish a new version
// (followers apply shipped records at strict version boundaries), and
// is idempotent. xviquery -substring and xvid -substring enable it at
// the tools layer; xvibench -exp a8 is the text-predicate experiment.
//
// # Memory layout
//
// Reader-hot state is compressed without changing any observable
// behaviour: B+tree leaves store their sorted (key, posting) entries
// as frame-of-reference delta varints (2-6 bytes per entry instead of
// 16; reads stream-decode, single-entry mutations splice bytes and
// re-encode at most the successor entry); text and attribute values
// are hash-consed into a shared heap on build and update, with dead
// bytes tracked and the heap compacted automatically on the private
// draft of a commit that crosses the dead-bytes threshold; substring
// candidate postings intersect as delta-encoded byte strings. All of
// it lives behind the same MVCC snapshots — readers stay lock-free
// and pinned versions stay bit-stable — and snapshots carry a format
// version (4), so a snapshot in any other format, including version 3
// with its stored parents, inverse stable-id maps and statistics, fails
// to load with a descriptive error. A snapshot stores only what cannot
// be derived, all through one varint codec; Load derives parents and
// levels from sizes (the pre/size/level encoding), the inverse maps,
// the per-node index state and the statistics. Save rewrites the name
// dictionary to only the names live nodes still reference.
//
// Document.MemStats reports the footprint per component; bytes per node
// is the tracked layout metric, surfaced through GET /v1/stats (mem),
// the xvibench a6/a8 tables (B/node), and the served benchmark's
// mem_bytes_per_node (bench/), which holds it to a 1 % bound.
//
// # Durability
//
// By default persistence is snapshot-only: updates live in memory until
// the next Save, and a crash loses everything since. Configuring a
// write-ahead log turns the document into a durable store without
// paying a snapshot rewrite per update:
//
//	doc, _ := xmlvi.ParseWithOptions(xml, xmlvi.Options{
//		WAL:          "db.wal",
//		WALSyncEvery: 64, // fsync once per 64 records; 1 = every record
//	})
//	doc.Save("db.xvi")       // first checkpoint: snapshot + empty log
//	doc.UpdateText(n, "new") // logged before it is applied
//	doc.Checkpoint()         // rewrite snapshot, truncate log
//
// After a crash, OpenDurable("db.xvi", "db.wal") loads the snapshot,
// replays the log tail through the same incremental update algorithm,
// verifies the recovered leaf hashes and FSM states, and resumes
// logging. The log is CRC-framed per record, so a torn tail is detected
// and truncated: recovery always yields the snapshot plus a prefix of
// the durably logged operations — never a half-applied record.
// Checkpoints are atomic (snapshot written to a temp file and renamed)
// and stamp both files with a generation number, so a crash at any
// point of the checkpoint itself leaves a recoverable pair; a stale log
// is detected and discarded rather than double-applied. Transaction
// commits log their whole write set as one record, making the commit
// itself the unit of recovery. WALSyncEvery > 1 batches fsyncs — the
// dominant cost of a durable update — trading the unsynced tail of a
// batch (bounded by the batch size) for an order of magnitude in update
// throughput; SyncWAL forces a durability point explicitly. See the
// README's durability section for the log format and the recovery
// contract, and internal/storage's crash-injection suite for the
// property that pins it.
//
// # Parallel index construction
//
// Options.Parallelism bounds the worker goroutines index construction
// uses: 0 means runtime.GOMAXPROCS(0) (the default), 1 forces the serial
// reference build — the paper's Figure 7 loop, kept as the oracle the
// parallel path is property-tested against. Both of Figure 7's
// ingredients are associative (the hash combination function C and the
// SCT's monoid composition), so the depth-first fold splits at subtree
// boundaries without changing any result:
//
//   - the document is carved into contiguous runs of complete subtrees
//     ("shards") hanging off a small spine (the document node plus any
//     element too large to hand to one worker whole);
//   - a worker pool runs the Figure 7 pass over each shard with private
//     scratch buffers, which are merged at shard boundaries afterwards;
//   - the spine is folded serially, children first, from the children's
//     stored fields — exactly how the Figure 8 update algorithm refolds
//     interior nodes — preserving SCT early-reject semantics bit for
//     bit;
//   - each index family's B+tree bulk-loads from the computed state on
//     its own goroutine, with the entry sort itself fanned out.
//
// The rest of bringing a document up runs on the same budget.
// EnableSubstring generates the gram keys over contiguous posting
// ranges, one per worker, and sorts them on all of them. Every tree's
// planner statistics come from one pass over the sorted entries it
// bulk-loads from, so no loaded tree is scanned again. Load decodes the
// tree sections on half the workers while the other half runs the fold,
// which depends on neither; VerifyLeaves checks the posting ranges in
// parallel and reports the first failure in document order, as the
// serial walk does. Two steps stay serial: the XML parse, and Save,
// whose sections are written in order — encoding them concurrently and
// writing them afterwards measured no faster (89–103 ms against
// 92–105 ms at xmark1 scale 4 on 2 CPUs).
//
// Every Parallelism setting produces identical indexes, down to snapshot
// bytes; internal/core's equivalence property tests pin this per index
// family, on the generated XMark corpus and on pathological shapes (one
// giant subtree, all-attribute documents, the empty document). Because
// the passes run per family, any type added through the registry is
// parallelised with no further work.
//
// # Concurrency
//
// The index layer is multi-versioned: the document, every index column,
// and every B+tree live in an immutable Snapshot, and a commit never
// mutates the published version. Every write — text batch, attribute
// update, Delete, InsertXML, and every replayed, shipped or time-travel
// record — is one write-ahead-log record committed by one function
// inside the index layer: validate against the current version, append
// the record to the log, build a copy-on-write draft, apply the paper's
// Figure 8 update to the draft, and publish it with one atomic pointer
// swap. The draft shares everything with the published version: the
// B+trees path-copy the nodes a write touches, and every per-position
// column — structure, values, stable ids, index state — is a persistent
// chunked column that copies its spine and the one chunk a write lands
// in. A structural commit splices every column at its edit point and
// rewrites the chunks from there on: O(chunk + depth) at the document's
// tail, O(N − at) in the middle, because pre ranks, parents and
// attribute starts are absolute; splices in O(chunk) anywhere need
// relative parents and a per-chunk count directory. Refolding an ancestor reads its children's stored
// states, and an element with more than B = 64 children keeps block
// partials: per index, the folded state of each run of B children,
// recorded by the first commit that refolds it and never persisted. A
// text commit refolds only the blocks that hold an updated leaf and
// combines the rest, so it reads O(depth · (B + k/B)) children for
// fan-out k, plus the B+tree paths of the keys it changes, not the
// document. Where two blocks would merge a digit run of more than 15
// digits, which float64 rounds by grouping, the element folds child by
// child, as Build and Load do. Version numbers
// increase by one per commit; a failed commit publishes nothing (the
// draft is discarded whole, so batches are atomic: a reader sees all of
// a batch or none of it).
//
// Readers therefore never block and never lock. Every read entry point
// (LookupString, LookupDouble, the Range methods, Query, tree
// navigation, Contains) pins the current version with one atomic load
// and runs entirely against it; a query plans, executes, and binds its
// results against one pinned version even while writers storm. A
// pinned Snapshot is immutable forever — Go's garbage collector is the
// epoch-reclamation scheme: a version's memory is reclaimed when the
// last reader drops it, with no reader registration or grace periods.
//
// Writers are serialized by a single internal commit mutex; for
// multi-statement isolation and commutativity checking, coordinate
// writes through the transaction layer (Begin/Txn, whose commit section
// commits each transaction as one text-batch record). The type registry
// follows the same pattern — RegisterType copies and atomically swaps
// an immutable table — so lookups during registration are lock-free
// too.
//
// The network server (internal/server, cmd/xvid) is a direct projection
// of this version-publish protocol onto a wire protocol. Version
// numbers double as commit-sequence tokens — they are persisted in
// snapshots, so a token survives Save/Load, checkpoints, and crash
// recovery — and every served query runs on one Pin'd version. OnCommit
// observes each publication synchronously under the commit mutex, after
// the atomic swap, which is why the served WATCH stream carries every
// committed change exactly once, in version order, with no gaps: the
// stream is the write-ahead log viewed live (the hook payload is the
// canonical WAL record encoding), and RecoveredChanges replays the
// recovered log tail into it after a restart so subscribers resume
// across crashes. A query's response is appended straight from its hits
// (Result.AppendValue, Result.AppendPath) into a pooled buffer, in
// exactly the bytes encoding/json would write for the documented
// QueryResponse schema.
//
// Replication (internal/replica, xvid -follow) is the same protocol run
// in reverse: a follower subscribes to the leader's WATCH stream with
// shipped payloads and feeds each record to ApplyChange, which decodes
// it and hands it to the very commit function the leader's write ran —
// validate, append to the follower's own log, draft, apply, one atomic
// publish — but only at the exactly matching version boundary (record
// N+1 on top of version N; anything else is a rejected gap, never a
// partial apply). A record whose fields name no node, or overflow their
// id type, is rejected before anything changes. Because version
// numbers, record bytes, and the commit function are all shared, the
// follower's published version N is byte-identical to the leader's
// version N, its readers get the same lock-free pinned-snapshot
// guarantees, and a leader version token passed as a min_version bound
// on a follower read yields read-your-writes across the pair. Crash
// recovery and history use the same entry: OpenDurable replays its own
// log's tail through it, and OpenAt(snapshot, wal, n) replays a durable
// pair's log tail to any retained version and hands back that state as
// a detached document.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduction of the paper's evaluation.
package xmlvi
