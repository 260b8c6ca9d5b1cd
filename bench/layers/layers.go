// Package layers is the only place the benchmark imports repro/internal/*.
// It wraps the three things the end-to-end driver needs from inside the
// module (the document generator and the HTTP handler xvid serves) and
// holds the per-layer probes of the traced run: each probe calls one
// layer's public functions and reports the call to the caller's span
// recorder, so the spans are taken by the benchmark's own code, around the
// layers, never inside them.
//
// Nothing here uses plan.Legacy, Exec.LegacyIndexed, internal/substr,
// internal/experiments or the per-type facade accessors, so the package
// keeps compiling through the deletions ROADMAP item 3 plans.
package layers

import (
	"fmt"
	"io"
	"net/http"
	"time"

	xmlvi "repro"
	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/xmlparse"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Span times one call into a layer under the given span name; the
// benchmark's recorder supplies it.
type Span func(name string, call func())

// Generate returns the XMark document every workload serves.
func Generate(scale float64, seed int64) ([]byte, error) {
	return datagen.Generate("xmark1", scale, seed)
}

// NewHandler registers doc under name on a fresh server, exactly as
// cmd/xvid does, and returns the protocol handler and the server's closer
// (which also closes the document).
func NewHandler(name string, doc *xmlvi.Document, snapshotPath, walPath string) (http.Handler, io.Closer, error) {
	srv := server.New(server.Config{})
	opts := server.DocOptions{SnapshotPath: snapshotPath, WALPath: walPath}
	if err := srv.AddDocumentWithOptions(name, doc, opts); err != nil {
		return nil, nil, err
	}
	return srv.Handler(), srv, nil
}

// Twin is a second build of the served XML, straight on internal/core, so
// the traced run can call the stages Document.Query runs as one.
type Twin struct {
	ix *core.Indexes
}

// BuildTwin shreds raw and builds every index, one span per set-up layer:
// xmlparse.parse, core.build, core.substr_build, core.save,
// core.open_durable (of the pair just saved, closed again at once) and
// core.verify. The returned twin is the in-memory build.
func BuildTwin(raw []byte, snapshotPath, walPath string, span Span) (*Twin, error) {
	var (
		doc *xmltree.Doc
		ix  *core.Indexes
		err error
	)
	span("xmlparse.parse", func() { doc, err = xmlparse.Parse(raw) })
	if err != nil {
		return nil, fmt.Errorf("layers: parse: %w", err)
	}
	span("core.build", func() { ix = core.Build(doc, core.DefaultOptions()) })
	span("core.substr_build", func() { ix.EnableSubstring() })
	span("core.save", func() { err = ix.Save(snapshotPath) })
	if err != nil {
		return nil, fmt.Errorf("layers: save: %w", err)
	}
	if _, err := OpenDurable(snapshotPath, walPath, span); err != nil {
		return nil, err
	}
	span("core.verify", func() { err = ix.Verify() })
	if err != nil {
		return nil, fmt.Errorf("layers: verify: %w", err)
	}
	return &Twin{ix: ix}, nil
}

// OpenDurable recovers a snapshot+WAL pair under one core.open_durable
// span, closes it again, and reports how many log records it replayed.
func OpenDurable(snapshotPath, walPath string, span Span) (records int, err error) {
	var ix *core.Indexes
	span("core.open_durable", func() { ix, err = core.OpenDurable(snapshotPath, walPath, 1) })
	if err != nil {
		return 0, fmt.Errorf("layers: open durable: %w", err)
	}
	records = len(ix.RecoveredTail())
	return records, ix.CloseWAL()
}

// QueryInfo is what one planned execution tells the quality ratios.
type QueryInfo struct {
	UsesIndex bool
	EstRows   float64 // the planner's estimate for the result operator; < 0 when it has none
	Results   int
	Postings  int // index postings drained by the access paths (driver and intersected)
}

// Query runs expr through the stages Document.Query chains — xpath.parse,
// plan.prepare, plan.execute — one span each.
func (t *Twin) Query(expr string, span Span) (QueryInfo, error) {
	snap := t.ix.Snapshot()
	var (
		path *xpath.Path
		p    *plan.Plan
		err  error
		hits []core.Posting
	)
	span("xpath.parse", func() { path, err = xpath.Parse(expr) })
	if err != nil {
		return QueryInfo{}, err
	}
	span("plan.prepare", func() { p, err = plan.Prepare(snap, path, plan.Auto) })
	if err != nil {
		return QueryInfo{}, err
	}
	span("plan.execute", func() { hits = p.Execute() })
	info := QueryInfo{UsesIndex: p.UsesIndex(), EstRows: p.Root.EstRows, Results: len(hits)}
	if info.UsesIndex {
		info.Postings = leafRows(p.Root)
	}
	return info, nil
}

// leafRows sums the actual row counts of a plan tree's leaves: the
// postings its access paths drained.
func leafRows(n *plan.Node) int {
	if len(n.Children) == 0 {
		return max(n.ActRows, 0)
	}
	total := 0
	for _, c := range n.Children {
		total += leafRows(c)
	}
	return total
}

// TimeQuery plans and executes expr once and returns how long that took:
// under the cost-based planner, or with the document scan forced.
func (t *Twin) TimeQuery(expr string, forceScan bool) (time.Duration, error) {
	mode := plan.Auto
	if forceScan {
		mode = plan.ForceScan
	}
	path, err := xpath.Parse(expr)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	_, _, err = plan.Run(t.ix.Snapshot(), path, mode)
	return time.Since(start), err
}

// Scan evaluates expr with the scan evaluator alone, under an xpath.scan
// span.
func (t *Twin) Scan(expr string, span Span) error {
	path, err := xpath.Parse(expr)
	if err != nil {
		return err
	}
	if err := xpath.CheckSupported(path); err != nil {
		return err
	}
	span("xpath.scan", func() { xpath.Evaluate(t.ix.Snapshot().Doc(), path) })
	return nil
}

// IndexCond names the index condition a generated query was built around,
// so the probe can drive the same postings without the planner.
type IndexCond struct {
	Kind         string  // "string", "double", "date", "contains" or "starts-with"
	Str          string  // the literal or pattern
	Lo, Hi       float64 // double bounds, or days since the epoch for dates
	IncLo, IncHi bool
}

// Probe drains the posting iterator of c (core.iter span) and runs the
// materialising lookup for the same condition (core.lookup span).
func (t *Twin) Probe(c IndexCond, span Span) error {
	snap := t.ix.Snapshot()
	var (
		open   func() *core.PostingIter
		lookup func() []core.Posting
	)
	switch c.Kind {
	case "string":
		open = func() *core.PostingIter { return snap.StringEqIter(c.Str) }
		lookup = func() []core.Posting { return snap.LookupString(c.Str) }
	case "double":
		lo, hi := btree.EncodeFloat64(c.Lo), btree.EncodeFloat64(c.Hi)
		open = func() *core.PostingIter { return snap.TypedRangeIter(core.TypeDouble, lo, hi, c.IncLo, c.IncHi) }
		lookup = func() []core.Posting { return snap.RangeTyped(core.TypeDouble, lo, hi, c.IncLo, c.IncHi) }
	case "date":
		lo, hi := btree.EncodeInt64(int64(c.Lo)), btree.EncodeInt64(int64(c.Hi))
		open = func() *core.PostingIter { return snap.TypedRangeIter(core.TypeDate, lo, hi, c.IncLo, c.IncHi) }
		lookup = func() []core.Posting { return snap.RangeTyped(core.TypeDate, lo, hi, c.IncLo, c.IncHi) }
	case "contains":
		open = func() *core.PostingIter { return snap.SubstrIter(c.Str, false) }
		lookup = func() []core.Posting { return snap.Contains(c.Str) }
	case "starts-with":
		open = func() *core.PostingIter { return snap.SubstrIter(c.Str, true) }
		lookup = func() []core.Posting { return snap.StartsWith(c.Str) }
	default:
		return fmt.Errorf("layers: unknown index condition kind %q", c.Kind)
	}
	span("core.iter", func() {
		it := open()
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
		it.Close()
	})
	span("core.lookup", func() { lookup() })
	return nil
}

// Insert inserts fragment (one or more top-level elements) under parent at
// child index pos, under a core.insert span, and returns the first
// inserted node.
func (t *Twin) Insert(parent int32, pos int, fragment string, span Span) (int32, error) {
	wrapped, err := xmlparse.ParseString("<f>" + fragment + "</f>")
	if err != nil {
		return 0, fmt.Errorf("layers: fragment: %w", err)
	}
	// InsertChildren takes the fragment's top-level nodes, so unwrap <f>
	// by rebuilding its one child element as a document of its own.
	frag, err := subtree(wrapped, wrapped.FirstChild(wrapped.FirstChild(wrapped.Root())))
	if err != nil {
		return 0, err
	}
	var at xmltree.NodeID
	span("core.insert", func() { at, err = t.ix.InsertChildren(xmltree.NodeID(parent), pos, frag) })
	return int32(at), err
}

// subtree copies the element n of src, with its attributes and text, into
// a fragment document.
func subtree(src *xmltree.Doc, n xmltree.NodeID) (*xmltree.Doc, error) {
	b := xmltree.NewBuilder()
	var walk func(m xmltree.NodeID)
	walk = func(m xmltree.NodeID) {
		switch src.Kind(m) {
		case xmltree.Element:
			b.StartElement(src.Name(m))
			lo, hi := src.AttrRange(m)
			for a := lo; a < hi; a++ {
				b.Attribute(src.AttrName(a), src.AttrValue(a))
			}
			for c := src.FirstChild(m); c != xmltree.InvalidNode; c = src.NextSibling(c) {
				walk(c)
			}
			b.EndElement()
		case xmltree.Text:
			b.Text(src.Value(m))
		}
	}
	walk(n)
	return b.Finish()
}

// Delete removes the subtree rooted at node under a core.delete span.
func (t *Twin) Delete(node int32, span Span) error {
	var err error
	span("core.delete", func() { err = t.ix.DeleteSubtree(xmltree.NodeID(node)) })
	return err
}
