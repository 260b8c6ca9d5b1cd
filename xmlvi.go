package xmlvi

import (
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/plan"
	"repro/internal/txn"
	"repro/internal/xmlparse"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Options configure parsing and index construction.
type Options struct {
	// String and Types select the indices to build: the string
	// equi-index and the typed indexes registered with core.RegisterType
	// under the listed IDs (core.TypeDouble, core.TypeDateTime,
	// core.TypeDate, …). Leaving both unset builds the string index and
	// every built-in typed index; an ID that is not registered makes
	// ParseWithOptions fail.
	String bool
	Types  []core.TypeID
	// StripWhitespace drops whitespace-only text nodes while shredding.
	StripWhitespace bool
	// SkipComments and SkipPIs drop those node kinds while shredding.
	SkipComments bool
	SkipPIs      bool
	// Parallelism bounds the worker goroutines index construction uses:
	// 0 means GOMAXPROCS, 1 forces the serial reference build. Every
	// setting produces identical indexes (down to snapshot bytes); see
	// the package documentation for the shard/merge design.
	Parallelism int
	// WAL names a write-ahead log file that makes updates durable. With
	// a WAL configured, the first Save writes the recovery baseline
	// snapshot and attaches the log; from then on every mutation is
	// logged (and fsynced, per WALSyncEvery) before it is applied, and
	// Save/Checkpoint rewrite the snapshot and truncate the log. A crash
	// loses at most the unsynced tail of the log — reopen with
	// OpenDurable to recover. Updates made before the first Save are not
	// logged: there is no snapshot to recover against yet.
	WAL string
	// WALSyncEvery batches log fsyncs: the log is forced to stable
	// storage once every N appended records (0 or 1 = after every
	// record, the safest setting). Batching amortises the fsync — the
	// dominant cost of a durable update — at the price of the tail of an
	// unsynced batch being lost on a crash; records are never
	// half-applied either way.
	WALSyncEvery int
	// Planner selects the query planning mode Query uses. The zero
	// value, PlannerAuto, is the cost-based planner; PlannerForceScan
	// and PlannerForceIndex pin one strategy (the two arms of the
	// scan-vs-index crossover ablation). See Explain for inspecting the
	// chosen plan.
	Planner PlannerMode
}

// PlannerMode is the query planning knob; see Options.Planner.
type PlannerMode = plan.Mode

const (
	// PlannerAuto is the cost-based planner (the default).
	PlannerAuto = plan.Auto
	// PlannerForceScan always evaluates by document scan.
	PlannerForceScan = plan.ForceScan
	// PlannerForceIndex always drives the cheapest index access path.
	PlannerForceIndex = plan.ForceIndex
)

// ParsePlannerMode resolves "auto", "scan", or "index" — the
// command-line spellings of Options.Planner.
func ParsePlannerMode(s string) (PlannerMode, error) { return plan.ParseMode(s) }

func (o Options) indexOptions() (core.Options, error) {
	co := core.Options{String: o.String, Types: o.Types, Parallelism: o.Parallelism}
	if !o.String && len(o.Types) == 0 {
		co = core.DefaultOptions()
		co.Parallelism = o.Parallelism
	}
	for _, id := range co.Types {
		if _, ok := core.LookupType(id); !ok {
			return core.Options{}, fmt.Errorf("xmlvi: typed index ID %d is not registered", id)
		}
	}
	return co, nil
}

// Document is an indexed XML document: the shredded tree plus the value
// indices, published together as immutable versions. Every read method
// pins the current version once and answers entirely from it, so one
// call never mixes two versions and never blocks, or is blocked by, a
// commit. Two calls may observe different versions when a commit lands
// between them; Pin a version to issue several reads against one.
// Results carry their version, but a bare Node or Attr id is a position
// in one version and a structural update (Delete/InsertXML) renumbers
// it. Writes are serialised internally, each publishing one new
// version; Begin/Txn groups writes atomically. SetPlanner must not race
// with queries. See the package documentation's concurrency section.
type Document struct {
	ix  *core.Indexes
	mgr *txn.Manager

	// planner is the query planning mode Query and Explain run under
	// (Options.Planner, or SetPlanner after loading).
	planner PlannerMode

	// Durability wiring (see Options.WAL): the log path is remembered
	// until the first Save attaches it.
	walPath      string
	walSyncEvery int
}

// Parse shreds the XML input and builds all three value indices.
func Parse(xml []byte) (*Document, error) { return ParseWithOptions(xml, Options{}) }

// ParseString is Parse for a string input.
func ParseString(xml string) (*Document, error) { return ParseWithOptions([]byte(xml), Options{}) }

// ParseWithOptions shreds with explicit options.
func ParseWithOptions(xml []byte, opts Options) (*Document, error) {
	doc, err := xmlparse.ParseWith(xml, xmlparse.Options{
		StripWhitespaceText: opts.StripWhitespace,
		SkipComments:        opts.SkipComments,
		SkipPIs:             opts.SkipPIs,
	})
	if err != nil {
		return nil, err
	}
	co, err := opts.indexOptions()
	if err != nil {
		return nil, err
	}
	ix := core.Build(doc, co)
	return &Document{ix: ix, mgr: txn.NewManager(ix), planner: opts.Planner, walPath: opts.WAL, walSyncEvery: opts.WALSyncEvery}, nil
}

// Load reads a snapshot produced by Save, verifying checksums.
func Load(path string) (*Document, error) {
	ix, err := core.Load(path)
	if err != nil {
		return nil, err
	}
	return &Document{ix: ix, mgr: txn.NewManager(ix)}, nil
}

// OpenDurable recovers a durable document: it loads the snapshot,
// replays the write-ahead log's tail against it (truncating a torn
// record from a crashed writer, discarding a log already contained in
// the snapshot), verifies the recovered leaf hashes and states, and
// keeps the log attached so further updates stay durable. Recovery
// always yields a state that existed: the snapshot plus a prefix of the
// durably logged updates — never a half-applied record.
func OpenDurable(snapshotPath, walPath string) (*Document, error) {
	return OpenDurableWithOptions(snapshotPath, walPath, Options{})
}

// OpenDurableWithOptions is OpenDurable with explicit options. Only the
// WAL-related fields are consulted (WALSyncEvery — index selection and
// parallelism are determined by the snapshot).
func OpenDurableWithOptions(snapshotPath, walPath string, opts Options) (*Document, error) {
	ix, err := core.OpenDurable(snapshotPath, walPath, opts.WALSyncEvery)
	if err != nil {
		return nil, err
	}
	return &Document{ix: ix, mgr: txn.NewManager(ix), planner: opts.Planner, walPath: walPath, walSyncEvery: opts.WALSyncEvery}, nil
}

// Save persists the document and its indices to a checksummed snapshot
// file. On a document with a configured WAL (Options.WAL or
// OpenDurable), Save is a checkpoint: the snapshot is written
// atomically, stamped with the next checkpoint generation, and the log
// is truncated; the first such Save creates the log.
func (d *Document) Save(path string) error {
	if d.walPath != "" && !d.ix.HasWAL() {
		return d.ix.StartDurable(path, d.walPath, d.walSyncEvery)
	}
	if d.ix.HasWAL() {
		return d.ix.CheckpointTo(path)
	}
	return d.ix.Save(path)
}

// Checkpoint rewrites the snapshot at its last Save/OpenDurable path and
// truncates the write-ahead log, bounding log growth and recovery time.
// It fails with core.ErrNoWAL when no log is attached (no WAL
// configured, or no Save yet).
func (d *Document) Checkpoint() error { return d.ix.Checkpoint() }

// SyncWAL forces batched log records to stable storage; a no-op without
// an attached log or with WALSyncEvery <= 1 (always synced).
func (d *Document) SyncWAL() error { return d.ix.SyncWAL() }

// Close syncs and detaches the write-ahead log, if any. The document
// remains usable in memory; subsequent updates are no longer logged.
//
// Close is idempotent — closing twice (or a document that never had a
// WAL) returns nil — and safe to call while reads are in flight: pinned
// snapshots (Pin, Query, the lookups) never touch the log, so a server
// can drain readers and Close concurrently during shutdown. Only the
// first Close performs the sync; it reports any final fsync error.
func (d *Document) Close() error { return d.ix.CloseWAL() }

// XML serialises the document back to XML.
func (d *Document) XML() ([]byte, error) { return xmlparse.SerializeToBytes(d.ix.Doc()) }

// WriteXML streams the document as XML to w.
func (d *Document) WriteXML(w io.Writer) error { return xmlparse.Serialize(w, d.ix.Doc()) }

// Node identifies a tree node of a Document. Node values are invalidated
// by structural updates (Delete/Insert).
type Node = xmltree.NodeID

// Attr identifies an attribute of a Document.
type Attr = xmltree.AttrID

// Result is one query or lookup hit.
type Result struct {
	// Node is set for element/text/document hits; Attr for attributes.
	Node   Node
	Attr   Attr
	IsAttr bool

	doc *xmltree.Doc
}

// Value returns the hit's string value (XDM semantics: for elements, the
// concatenation of descendant text).
func (r Result) Value() string { return string(r.AppendValue(nil)) }

// AppendValue appends Value's bytes to dst and returns the extended
// slice, copying straight from the document's text heap.
func (r Result) AppendValue(dst []byte) []byte {
	if r.IsAttr {
		return append(dst, r.doc.AttrValueBytes(r.Attr)...)
	}
	return r.doc.AppendStringValue(dst, r.Node)
}

// Name returns the element tag or attribute name of the hit, "" for text
// nodes.
func (r Result) Name() string {
	if r.IsAttr {
		return r.doc.AttrName(r.Attr)
	}
	return r.doc.Name(r.Node)
}

// Path returns a simple location path (tag names from the root) for
// diagnostics.
func (r Result) Path() string { return string(r.AppendPath(nil)) }

// AppendPath appends Path's bytes to dst and returns the extended slice.
func (r Result) AppendPath(dst []byte) []byte {
	n := r.Node
	switch {
	case r.IsAttr:
		n = r.doc.AttrOwner(r.Attr)
	case r.doc.Kind(n) == xmltree.Text:
		n = r.doc.Parent(n)
	}
	dst = appendElementPath(dst, r.doc, n)
	switch {
	case r.IsAttr:
		dst = append(append(dst, "/@"...), r.doc.AttrName(r.Attr)...)
	case r.doc.Kind(r.Node) == xmltree.Text:
		dst = append(dst, "/text()"...)
	}
	return dst
}

// appendElementPath appends "/tag" for every element from the root down
// to n, n included.
func appendElementPath(dst []byte, doc *xmltree.Doc, n Node) []byte {
	if n <= 0 {
		return dst
	}
	dst = appendElementPath(dst, doc, doc.Parent(n))
	if doc.Kind(n) == xmltree.Element {
		dst = append(append(dst, '/'), doc.Name(n)...)
	}
	return dst
}

// ErrUnsupportedPath is returned by Query, QueryScan, and Explain for
// parsed expressions whose shape the evaluators cannot answer (such as
// attribute steps in the middle of a path). Match with errors.Is.
var ErrUnsupportedPath = xpath.ErrUnsupportedPath

// Query evaluates an XPath expression (see the xpath dialect in the
// README) through the cost-based query planner: each indexable
// predicate condition is priced as an index access path, the cheapest
// drives, selective companions are intersected, and non-indexable
// shapes fall back to scanning. Options.Planner (or SetPlanner)
// switches the strategy; Explain shows the chosen plan. Unsupported
// path shapes fail with ErrUnsupportedPath instead of silently
// returning an empty result.
func (d *Document) Query(expr string) ([]Result, error) { return d.Pin().Query(expr) }

// QueryScan evaluates an XPath expression without indices — the baseline
// the benchmarks compare against.
func (d *Document) QueryScan(expr string) ([]Result, error) {
	p, err := xpath.Parse(expr)
	if err != nil {
		return nil, err
	}
	if err := xpath.CheckSupported(p); err != nil {
		return nil, err
	}
	snap := d.ix.Snapshot()
	return pinnedResults(xpath.Evaluate(snap.Doc(), p), snap), nil
}

// Explain is the executed plan of one query: a printable operator tree
// (Plan.String) whose nodes carry the planner's cardinality estimates
// next to the actual counts observed during execution.
type Explain = plan.Plan

// Explain plans and executes an XPath expression, returning the results
// together with the executed plan tree. The plan reports, per operator,
// the estimated cardinality (from the statistics layer's distinct-key
// counts and equi-depth histograms) and the actual one.
func (d *Document) Explain(expr string) ([]Result, *Explain, error) { return d.Pin().Explain(expr) }

// SetPlanner switches the query planning mode (useful on documents
// loaded from snapshots, where no Options are passed).
func (d *Document) SetPlanner(m PlannerMode) { d.planner = m }

// Planner reports the current query planning mode.
func (d *Document) Planner() PlannerMode { return d.planner }

// LookupString returns every node whose string value equals value,
// verified (hash candidates are checked against the document).
func (d *Document) LookupString(value string) []Result {
	snap := d.ix.Snapshot()
	return pinnedResults(snap.LookupString(value), snap)
}

// LookupDouble returns every node whose typed double value equals v —
// "42", "42.0", " +4.2E1", and mixed content all match.
func (d *Document) LookupDouble(v float64) []Result { return d.rangeDouble(v, v, true) }

// RangeDouble returns nodes with double values in [lo, hi] (inclusive),
// in ascending value order.
func (d *Document) RangeDouble(lo, hi float64) []Result { return d.rangeDouble(lo, hi, true) }

// RangeDoubleExclusive returns nodes with lo < value < hi.
func (d *Document) RangeDoubleExclusive(lo, hi float64) []Result {
	return d.rangeDouble(lo, hi, false)
}

// RangeDateTime returns nodes whose xs:dateTime value lies in [from, to].
func (d *Document) RangeDateTime(from, to time.Time) []Result {
	return d.rangeTyped(core.TypeDateTime, btree.EncodeInt64(from.UnixMilli()), btree.EncodeInt64(to.UnixMilli()), true)
}

// RangeDate returns nodes whose xs:date value lies in [from, to]. Only
// the calendar date (UTC) of the bounds is considered.
func (d *Document) RangeDate(from, to time.Time) []Result {
	return d.rangeTyped(core.TypeDate, btree.EncodeInt64(epochDays(from)), btree.EncodeInt64(epochDays(to)), true)
}

// rangeDouble is the xs:double range lookup. A NaN bound denotes an
// empty range (XPath comparisons with NaN are always false), never a
// key-space scan.
func (d *Document) rangeDouble(lo, hi float64, inclusive bool) []Result {
	if math.IsNaN(lo) || math.IsNaN(hi) {
		return []Result{}
	}
	return d.rangeTyped(core.TypeDouble, btree.EncodeFloat64(lo), btree.EncodeFloat64(hi), inclusive)
}

// rangeTyped answers one typed range lookup over encoded key bounds
// against one pinned version.
func (d *Document) rangeTyped(id core.TypeID, lo, hi uint64, inclusive bool) []Result {
	snap := d.ix.Snapshot()
	return pinnedResults(snap.RangeTyped(id, lo, hi, inclusive, inclusive), snap)
}

// epochDays converts a time to whole days since the Unix epoch in UTC,
// the xs:date index's value domain.
func epochDays(t time.Time) int64 {
	const day = 24 * time.Hour
	return t.UTC().Truncate(day).Unix() / int64(day/time.Second)
}

// --- navigation and inspection ---

// Root returns the document node.
func (d *Document) Root() Node { return d.ix.Doc().Root() }

// Find returns the first element with the given tag in document order, or
// -1.
func (d *Document) Find(tag string) Node {
	doc := d.ix.Doc()
	for i := 0; i < doc.NumNodes(); i++ {
		n := Node(i)
		if doc.Kind(n) == xmltree.Element && doc.Name(n) == tag {
			return n
		}
	}
	return xmltree.InvalidNode
}

// FindAll returns every element with the given tag in document order.
func (d *Document) FindAll(tag string) []Node {
	doc := d.ix.Doc()
	var out []Node
	for i := 0; i < doc.NumNodes(); i++ {
		n := Node(i)
		if doc.Kind(n) == xmltree.Element && doc.Name(n) == tag {
			out = append(out, n)
		}
	}
	return out
}

// NodeKind distinguishes document, element, text, comment, and
// processing-instruction nodes.
type NodeKind = xmltree.Kind

// The node kinds, re-exported for callers inspecting tree structure.
const (
	KindDocument = xmltree.Document
	KindElement  = xmltree.Element
	KindText     = xmltree.Text
	KindComment  = xmltree.Comment
	KindPI       = xmltree.PI
)

// Kind reports a node's kind.
func (d *Document) Kind(n Node) NodeKind { return d.ix.Doc().Kind(n) }

// StringValue returns a node's XDM string value.
func (d *Document) StringValue(n Node) string { return d.ix.Doc().StringValue(n) }

// DoubleValue returns a node's xs:double value, if its string value is
// castable.
func (d *Document) DoubleValue(n Node) (float64, bool) {
	return typedValue(d, core.TypeDouble, n, fsm.DoubleValue)
}

// DateTimeValue returns a node's xs:dateTime value, if castable.
func (d *Document) DateTimeValue(n Node) (time.Time, bool) {
	ms, ok := typedValue(d, core.TypeDateTime, n, fsm.DateTimeValue)
	if !ok {
		return time.Time{}, false
	}
	return time.UnixMilli(ms).UTC(), true
}

// DateValue returns a node's xs:date value (midnight UTC), if castable.
func (d *Document) DateValue(n Node) (time.Time, bool) {
	days, ok := typedValue(d, core.TypeDate, n, fsm.DateValue)
	if !ok {
		return time.Time{}, false
	}
	return time.Unix(days*24*3600, 0).UTC(), true
}

// typedValue reads node n's stored fragment under typed index id and
// extracts the type's value from it.
func typedValue[T any](d *Document, id core.TypeID, n Node, value func(fsm.Frag) (T, bool)) (T, bool) {
	f, ok := d.ix.Snapshot().TypedFrag(id, n)
	if !ok {
		var zero T
		return zero, false
	}
	return value(f)
}

// Hash returns the stored 32-bit value hash of a node — H of its string
// value, maintained incrementally across updates.
func (d *Document) Hash(n Node) uint32 { return d.ix.Snapshot().NodeHash(n) }

// Children returns a node's children in document order.
func (d *Document) Children(n Node) []Node { return d.ix.Doc().Children(n) }

// Parent returns a node's parent, or -1 at the document node.
func (d *Document) Parent(n Node) Node { return d.ix.Doc().Parent(n) }

// Name returns an element's tag.
func (d *Document) Name(n Node) string { return d.ix.Doc().Name(n) }

// NumNodes reports the number of tree nodes.
func (d *Document) NumNodes() int { return d.ix.Doc().NumNodes() }

// Stats exposes index statistics (population counts, size estimates).
func (d *Document) Stats() core.IndexStats { return d.ix.Snapshot().Stats() }

// MemStats measures the current version's in-memory footprint — the
// packed B+tree leaves, interned text heap, and side tables — including
// the bytes-per-node layout metric and its uncompressed-layout
// equivalent.
func (d *Document) MemStats() core.MemStats { return d.ix.Snapshot().MemStats() }

// Durable reports whether a write-ahead log is currently attached.
func (d *Document) Durable() bool { return d.ix.HasWAL() }

// WALGeneration reports the attached log's checkpoint generation (0
// before the first checkpoint or without a log).
func (d *Document) WALGeneration() uint64 { return d.ix.WALGeneration() }

// --- updates ---

// ErrNotText mirrors the tree-level error for non-text targets.
var ErrNotText = xmltree.ErrNotText

// UpdateText replaces the value of a text node and maintains all indices
// incrementally (the paper's Figure 8 algorithm), including the substring
// index when enabled.
func (d *Document) UpdateText(n Node, value string) error {
	return d.ix.UpdateText(n, value)
}

// TextUpdate is one batched text update.
type TextUpdate = core.TextUpdate

// UpdateTexts applies a batch of text updates; each affected ancestor is
// refolded exactly once.
func (d *Document) UpdateTexts(updates []TextUpdate) error {
	return d.ix.UpdateTexts(updates)
}

// UpdateAttr replaces an attribute value.
func (d *Document) UpdateAttr(a Attr, value string) error { return d.ix.UpdateAttr(a, value) }

// FindAttr locates an attribute of element n by name, or -1.
func (d *Document) FindAttr(n Node, name string) Attr { return d.ix.Doc().FindAttr(n, name) }

// Delete removes a node and its subtree, maintaining all indices.
func (d *Document) Delete(n Node) error {
	return d.ix.DeleteSubtree(n)
}

// InsertXML parses an XML fragment and inserts its top-level elements as
// children of parent at child position pos, maintaining all indices. It
// returns the first inserted node.
func (d *Document) InsertXML(parent Node, pos int, fragment string) (Node, error) {
	frag, err := xmlparse.ParseString("<frag>" + fragment + "</frag>")
	if err != nil {
		return xmltree.InvalidNode, fmt.Errorf("xmlvi: fragment: %w", err)
	}
	// Unwrap: insert the children of the <frag> wrapper.
	wrapper := frag.FirstChild(frag.Root())
	if frag.Size(wrapper) == 0 {
		return xmltree.InvalidNode, errors.New("xmlvi: empty fragment")
	}
	sub := subtreeDoc(frag, wrapper)
	return d.ix.InsertChildren(parent, pos, sub)
}

// subtreeDoc rebuilds a fragment document containing the children of n.
func subtreeDoc(src *xmltree.Doc, n xmltree.NodeID) *xmltree.Doc {
	b := xmltree.NewBuilder()
	var copyNode func(m xmltree.NodeID)
	copyNode = func(m xmltree.NodeID) {
		switch src.Kind(m) {
		case xmltree.Element:
			b.StartElement(src.Name(m))
			lo, hi := src.AttrRange(m)
			for a := lo; a < hi; a++ {
				b.Attribute(src.AttrName(a), src.AttrValue(a))
			}
			for c := src.FirstChild(m); c != xmltree.InvalidNode; c = src.NextSibling(c) {
				copyNode(c)
			}
			b.EndElement()
		case xmltree.Text:
			b.Text(src.Value(m))
		case xmltree.Comment:
			b.Comment(src.Value(m))
		case xmltree.PI:
			b.PI(src.Name(m), src.Value(m))
		}
	}
	for c := src.FirstChild(n); c != xmltree.InvalidNode; c = src.NextSibling(c) {
		copyNode(c)
	}
	doc, err := b.Finish()
	if err != nil {
		// The source subtree is valid by construction; a failure here is
		// a programming error.
		panic("xmlvi: subtree copy failed: " + err.Error())
	}
	return doc
}

// Verify checks full index consistency against the document — rebuild
// semantics without rebuilding. Intended for tests and debugging; cost is
// proportional to document size times depth.
func (d *Document) Verify() error { return d.ix.Verify() }

// --- transactions (Section 5.1) ---

// Txn is a commutative transaction: it locks only the text nodes it
// writes, never their ancestors, and applies its writes atomically at
// Commit. Concurrent transactions over disjoint text nodes never
// conflict, even when they share every ancestor.
type Txn = txn.Txn

// ErrConflict is returned by Txn.SetText on write-write conflicts.
var ErrConflict = txn.ErrConflict

// Begin starts a commutative transaction on the document.
func (d *Document) Begin() *Txn { return d.mgr.Begin() }

// --- substring index (the paper's stated future work) ---

// EnableSubstringIndex builds the optional q-gram substring index over
// all text and attribute values. The index lives inside the versioned
// snapshot like every other index: once enabled, every commit path
// (text/attribute updates, structural updates, WAL replay, shipped
// replication records) maintains it copy-on-write, so Contains and the
// planner's contains()/starts-with() access path always observe one
// consistent version. Enabling is idempotent.
func (d *Document) EnableSubstringIndex() { d.ix.EnableSubstring() }

// HasSubstringIndex reports whether the q-gram substring index is
// present in the current version — enabled here, or inherited from a
// snapshot that was saved with it.
func (d *Document) HasSubstringIndex() bool { return d.ix.Snapshot().HasSubstring() }

// Contains returns every text and attribute node whose value contains
// pattern. With the substring index enabled (and the pattern at least
// core.SubstrQ bytes), candidates come from q-gram posting-list
// intersection and are verified; otherwise every value is scanned. Both
// routes answer against one pinned snapshot.
func (d *Document) Contains(pattern string) []Result {
	snap := d.ix.Snapshot()
	return pinnedResults(snap.Contains(pattern), snap)
}

// StartsWith returns every text and attribute node whose value starts
// with pattern, through the same index-or-scan route as Contains.
func (d *Document) StartsWith(pattern string) []Result {
	snap := d.ix.Snapshot()
	return pinnedResults(snap.StartsWith(pattern), snap)
}
