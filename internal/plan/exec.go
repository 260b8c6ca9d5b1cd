package plan

import (
	"repro/internal/core"
	"repro/internal/xpath"
)

// maxExtras caps the access paths intersected beside the driver (one
// bitmask bit each); the greedy chooser stops there.
const maxExtras = 8

// ctxMask accumulates one bit per intersected access path over context
// ids (tree nodes, or attributes for attribute steps). Representation
// follows the planner's estimates: a dense byte-map when the expected
// population justifies O(domain) storage, a sparse map otherwise — a
// selective conjunction must not pay O(document) per query.
type ctxMask struct {
	dense  []uint8
	sparse map[int32]uint8
}

// newCtxMask sizes the mask for a domain of n ids with an expected
// population of est marks.
func newCtxMask(n int, est float64) *ctxMask {
	if est*8 >= float64(n) {
		return &ctxMask{dense: make([]uint8, n)}
	}
	return &ctxMask{sparse: make(map[int32]uint8, int(est)+16)}
}

func (m *ctxMask) or(id int32, bit uint8) {
	if m.dense != nil {
		m.dense[id] |= bit
		return
	}
	m.sparse[id] |= bit
}

func (m *ctxMask) get(id int32) uint8 {
	if m.dense != nil {
		return m.dense[id]
	}
	return m.sparse[id]
}

// Execute runs the plan and returns the hits in document order,
// filling in every operator's actual cardinality. The scan evaluator
// produces byte-identical results for every strategy — the equivalence
// property tests pin this.
func (p *Plan) Execute() []core.Posting {
	ex := xpath.NewExec(p.ix.Doc())
	var out []core.Posting
	switch {
	case p.driver == nil:
		out = ex.Scan(p.path)
	case p.attrStep:
		out = p.runAttr(ex)
	default:
		out = p.runNode(ex)
	}
	p.Root.ActRows = len(out)
	return out
}

// runNode executes an index strategy whose final step selects tree
// nodes: stream every extra access path into a context bitmap, then
// drive the cheapest path, probing the bitmap before the expensive
// structure + predicate verification.
func (p *Plan) runNode(ex *xpath.Exec) []core.Posting {
	doc := ex.Doc()
	steps := p.path.Steps
	last := steps[len(steps)-1]
	prefix := steps[:len(steps)-1]

	// Non-driver paths stream into per-path bits of one byte-map: a
	// context is worth verifying only when every selective condition's
	// index produced it.
	var mask *ctxMask
	var want uint8
	for i, ap := range p.extras {
		bit := uint8(1) << i
		want |= bit
		if mask == nil {
			mask = newCtxMask(doc.NumNodes(), p.extrasEst())
		}
		it := ap.open(p.ix)
		fetched := 0
		for {
			cand, ok := it.Next()
			if !ok {
				break
			}
			fetched++
			for _, ctx := range ex.ContextsFor(cand, ap.cond) {
				mask.or(int32(ctx), bit)
			}
		}
		it.Close()
		ap.node.ActRows = fetched
	}

	it := p.driver.open(p.ix)
	defer it.Close()
	ex.BeginVisit()
	fetched, verified := 0, 0
	var out []core.Posting
	for {
		cand, ok := it.Next()
		if !ok {
			break
		}
		fetched++
		for _, ctx := range ex.ContextsFor(cand, p.driver.cond) {
			if mask != nil && mask.get(int32(ctx))&want != want {
				continue
			}
			// Dedupe up front: verification is deterministic, so a
			// context that failed once need not be re-verified.
			if !ex.Visit(ctx) {
				continue
			}
			verified++
			if !ex.TestMatch(ctx, last) {
				continue
			}
			if !ex.MatchesPrefix(ctx, prefix, last.Axis) {
				continue
			}
			// Re-verify all predicates: the indexes pre-filter their own
			// conditions, the remaining ones have not been checked.
			if !ex.PredsHold(ctx, last.Preds) {
				continue
			}
			out = append(out, core.NodePosting(ctx))
		}
	}
	p.fillActuals(fetched, verified)
	return ex.SortPostings(out)
}

// runAttr executes an index strategy whose final step selects
// attributes (//item/@id[. = "x"]): candidates are attribute postings,
// the attribute itself is the hit, and the bitmap is keyed by attribute
// id.
func (p *Plan) runAttr(ex *xpath.Exec) []core.Posting {
	doc := ex.Doc()
	steps := p.path.Steps
	last := steps[len(steps)-1]
	prefix := steps[:len(steps)-1]

	var mask *ctxMask
	var want uint8
	for i, ap := range p.extras {
		bit := uint8(1) << i
		want |= bit
		if mask == nil {
			mask = newCtxMask(doc.NumAttrs(), p.extrasEst())
		}
		it := ap.open(p.ix)
		fetched := 0
		for {
			cand, ok := it.Next()
			if !ok {
				break
			}
			fetched++
			if cand.IsAttr {
				mask.or(int32(cand.Attr), bit)
			}
		}
		it.Close()
		ap.node.ActRows = fetched
	}

	it := p.driver.open(p.ix)
	defer it.Close()
	fetched, verified := 0, 0
	var out []core.Posting
	for {
		cand, ok := it.Next()
		if !ok {
			break
		}
		fetched++
		if !cand.IsAttr {
			continue
		}
		if last.Name != "*" && doc.AttrName(cand.Attr) != last.Name {
			continue
		}
		if mask != nil && mask.get(int32(cand.Attr))&want != want {
			continue
		}
		verified++
		// A child-axis attribute step selects attributes OF the nodes
		// the prefix selects; a descendant step selects attributes of
		// their proper descendants.
		owner := doc.AttrOwner(cand.Attr)
		var ok2 bool
		if last.Axis == xpath.Child {
			ok2 = ex.AbsMatches(owner, prefix)
		} else {
			ok2 = ex.MatchesPrefix(owner, prefix, xpath.Descendant)
		}
		if !ok2 || !ex.AttrPredsHold(cand.Attr, last.Preds) {
			continue
		}
		out = append(out, core.AttrPosting(cand.Attr))
	}
	p.fillActuals(fetched, verified)
	return ex.SortPostings(out)
}

// extrasEst sums the intersected paths' estimated populations — the
// mask sizing input.
func (p *Plan) extrasEst() float64 {
	s := 0.0
	for _, ap := range p.extras {
		s += ap.est
	}
	return s
}

// fillActuals records the driver fetch count and the post-intersection
// verification count on the plan tree.
func (p *Plan) fillActuals(fetched, verified int) {
	p.driver.node.ActRows = fetched
	if p.verifyNode != nil {
		p.verifyNode.ActRows = verified
		if len(p.verifyNode.Children) == 1 && p.verifyNode.Children[0].Op == "intersect" {
			p.verifyNode.Children[0].ActRows = verified
		}
	}
}
