package plan

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/xpath"
)

// The cost model, in one unit: one node or attribute visited by the
// document scan. A scan costs N + A. An index arm is charged per
// estimated posting of its access paths, whatever its hit count. Every
// constant is measured, not chosen: TestCostConstantsMatchMeasurement
// times forced scans against forced index drives on XMark and logs what
// each constant measures. Estimates count B+tree entries, and a typed
// range's iterator also yields the single-child ancestors it lifts,
// about two postings per entry; the range constants absorb that factor.
// Marking or probing an intersection bitmap slot costs about one unit
// and is not charged.
const (
	costScanNode   = 1.0 // visit one node or attribute during a document scan
	costFetchRange = 20  // stream a typed range's posting: leaf, chain lift, ContextsFor
	costFetchHash  = 7   // the same for hash equality and q-grams, which lift nothing
	costVerify     = 30  // verify structure + every predicate for one driver posting
	costVerifyDate = 80  // the same under a date range: on XMark its postings reach contexts more often
)

// Prepare plans a query against the indexes under the given mode. It
// fails with xpath.ErrUnsupportedPath (wrapped) for shapes the
// evaluators cannot answer.
func Prepare(ix *core.Snapshot, path *xpath.Path, mode Mode) (*Plan, error) {
	if err := xpath.CheckSupported(path); err != nil {
		return nil, err
	}
	p := &Plan{Expr: path.String(), Mode: mode, ix: ix, path: path}
	if mode == ForceScan {
		p.enumerate() // for the side effect: fallback notes on text predicates
		p.planScan()
		return p, nil
	}

	cands := p.enumerate()
	if len(cands) == 0 {
		p.planScan()
		return p, nil
	}
	driver, extras, indexCost := p.chooseIndexStrategy(cands)
	if mode == Auto && p.scanCost() <= indexCost {
		p.planScan()
		return p, nil
	}
	p.driver, p.extras, p.EstCost = driver, extras, indexCost
	p.buildIndexTree()
	return p, nil
}

// Run plans and executes in one call, returning the sorted postings and
// the executed plan (actual cardinalities filled in).
func Run(ix *core.Snapshot, path *xpath.Path, mode Mode) ([]core.Posting, *Plan, error) {
	p, err := Prepare(ix, path, mode)
	if err != nil {
		return nil, nil, err
	}
	return p.Execute(), p, nil
}

// scanCost estimates a full document scan: every node and attribute is
// visited and tested.
func (p *Plan) scanCost() float64 {
	doc := p.ix.Doc()
	return float64(doc.NumNodes()+doc.NumAttrs()) * costScanNode
}

func (p *Plan) planScan() {
	p.EstCost = p.scanCost()
	detail := "document scan + navigation"
	if len(p.Notes) > 0 {
		detail += "; " + strings.Join(p.Notes, "; ")
	}
	p.Root = newNode("scan", detail, -1)
	p.Root.Children = nil
}

// enumerate builds one access path per indexable condition of the final
// step. On a final attribute step only dot conditions (the attribute's
// own value) are indexable; on node steps any condition whose literal
// has an index is.
func (p *Plan) enumerate() []*accessPath {
	steps := p.path.Steps
	if len(steps) == 0 {
		return nil
	}
	last := steps[len(steps)-1]
	p.attrStep = last.Kind == xpath.TestAttr
	var out []*accessPath
	for _, pred := range last.Preds {
		for _, c := range pred.Conds {
			if p.attrStep && !c.Dot {
				continue // attributes have no children; cond is vacuously false
			}
			if ap := p.accessPathFor(c); ap != nil {
				out = append(out, ap)
			}
		}
	}
	return out
}

// accessPathFor maps one condition to an index access path, or nil when
// no built index can answer it. The key ranges use the scan evaluator's
// casts (xs:double, xs:date), so every candidate the scan would accept
// lies inside the range; verification re-checks the condition itself.
func (p *Plan) accessPathFor(c xpath.Cond) *accessPath {
	ix := p.ix
	switch {
	// Text predicates first: a contains()/starts-with() condition carries
	// a string literal and the zero-value comparison operator, so letting
	// it reach the OpEq case below would wrongly plan a hash-equality
	// probe for it.
	case c.Fn != xpath.FnNone:
		return p.substrPathFor(c)
	case c.Lit.IsDate:
		if !ix.HasTyped(core.TypeDate) {
			return nil
		}
		lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
		switch c.Op {
		case xpath.OpEq:
			lo, hi = c.Lit.Days, c.Lit.Days
		case xpath.OpLt:
			hi = c.Lit.Days - 1 // integral day domain: exclusive = previous day
		case xpath.OpLe:
			hi = c.Lit.Days
		case xpath.OpGt:
			lo = c.Lit.Days + 1
		case xpath.OpGe:
			lo = c.Lit.Days
		case xpath.OpNe:
			return nil // the whole index; never selective
		}
		ap := &accessPath{cond: c, kind: pathRange, typeID: core.TypeDate, typeName: "date",
			lo: btree.EncodeInt64(lo), hi: btree.EncodeInt64(hi), incLo: true, incHi: true}
		ap.est = ix.EstimateTypedRange(ap.typeID, ap.lo, ap.hi, true, true)
		return ap
	case c.Lit.IsNum:
		if !ix.HasTyped(core.TypeDouble) || math.IsNaN(c.Lit.Num) {
			return nil
		}
		lo, hi := math.Inf(-1), math.Inf(1)
		incLo, incHi := true, true
		switch c.Op {
		case xpath.OpEq:
			lo, hi = c.Lit.Num, c.Lit.Num
		case xpath.OpLt:
			hi, incHi = c.Lit.Num, false
		case xpath.OpLe:
			hi = c.Lit.Num
		case xpath.OpGt:
			lo, incLo = c.Lit.Num, false
		case xpath.OpGe:
			lo = c.Lit.Num
		case xpath.OpNe:
			return nil
		}
		ap := &accessPath{cond: c, kind: pathRange, typeID: core.TypeDouble, typeName: "double",
			lo: btree.EncodeFloat64(lo), hi: btree.EncodeFloat64(hi), incLo: incLo, incHi: incHi}
		ap.est = ix.EstimateTypedRange(ap.typeID, ap.lo, ap.hi, incLo, incHi)
		return ap
	case c.Op == xpath.OpEq:
		if !ix.HasString() {
			return nil
		}
		ap := &accessPath{cond: c, kind: pathHashEq, value: c.Lit.Str}
		ap.est = ix.EstimateStringEq(c.Lit.Str)
		return ap
	}
	return nil
}

// substrPathFor maps a contains()/starts-with() condition to a q-gram
// index access path. The substring index stores only text-node and
// attribute values, so the condition is indexable only when its operand
// is such a leaf — an element string-value concatenates descendant text
// and a pattern spanning two text nodes would never surface a candidate.
// Every rejection is recorded as a plan note so the scan fallback is
// visible in EXPLAIN output.
func (p *Plan) substrPathFor(c xpath.Cond) *accessPath {
	ix := p.ix
	fn := fmt.Sprintf("%s(%s, %q)", c.Fn, condOperand(c), c.Lit.Str)
	if !p.substrLeafOperand(c) {
		p.Notes = append(p.Notes,
			fn+": operand is not a text()/attribute leaf — answered by scan")
		return nil
	}
	if !ix.HasSubstring() {
		p.Notes = append(p.Notes,
			fn+": substring index not enabled — answered by scan")
		return nil
	}
	if len(c.Lit.Str) < core.SubstrQ {
		p.Notes = append(p.Notes, fmt.Sprintf(
			"%s: pattern shorter than q=%d — answered by scan", fn, core.SubstrQ))
		return nil
	}
	ap := &accessPath{cond: c, kind: pathSubstr, value: c.Lit.Str}
	ap.est = ix.EstimateSubstr(c.Lit.Str)
	return ap
}

// substrLeafOperand reports whether the condition's operand resolves to
// text-node or attribute values — the only values the substring index
// holds postings for.
func (p *Plan) substrLeafOperand(c xpath.Cond) bool {
	if c.Dot {
		if p.attrStep {
			return true // the attribute's own value
		}
		last := p.path.Steps[len(p.path.Steps)-1]
		return last.Kind == xpath.TestText
	}
	if len(c.Rel) == 0 {
		return false
	}
	lastRel := c.Rel[len(c.Rel)-1]
	return lastRel.Kind == xpath.TestText || lastRel.Kind == xpath.TestAttr
}

// chooseIndexStrategy picks the cheapest driver and greedily adds
// intersection paths while they pay for themselves: streaming an extra
// path into a bitmap costs its own fetches, and saves the per-posting
// verification for every driver posting it filters out.
func (p *Plan) chooseIndexStrategy(cands []*accessPath) (driver *accessPath, extras []*accessPath, cost float64) {
	driver = cands[0]
	for _, ap := range cands[1:] {
		if ap.est < driver.est {
			driver = ap
		}
	}
	universe := max(p.scanCost(), 1) // node+attr count in scan-cost units (costScanNode = 1)
	verify := driver.verifyCost()

	// surviving tracks the expected number of driver postings still
	// reaching verification as extras are added (independence assumed).
	surviving := driver.est
	cost = driver.est * driver.fetchCost()
	// Consider the most selective extras first: each accepted extra
	// shrinks the surviving count the next one is judged against.
	rest := make([]*accessPath, 0, len(cands)-1)
	for _, ap := range cands {
		if ap != driver {
			rest = append(rest, ap)
		}
	}
	for i := 1; i < len(rest); i++ {
		for j := i; j > 0 && rest[j].est < rest[j-1].est; j-- {
			rest[j], rest[j-1] = rest[j-1], rest[j]
		}
	}
	for _, ap := range rest {
		if len(extras) == maxExtras {
			break
		}
		sel := min(ap.est/universe, 1)
		streamCost := ap.est * ap.fetchCost()
		saving := surviving * (1 - sel) * verify
		if streamCost < saving {
			extras = append(extras, ap)
			cost += streamCost
			surviving *= sel
		}
	}
	cost += surviving * verify
	return driver, extras, cost
}

// fetchCost is what streaming one estimated posting of the path costs.
func (ap *accessPath) fetchCost() float64 {
	if ap.kind == pathRange {
		return costFetchRange
	}
	return costFetchHash
}

// verifyCost is what verifying one estimated posting costs when the path
// drives.
func (ap *accessPath) verifyCost() float64 {
	if ap.kind == pathRange && ap.typeID == core.TypeDate {
		return costVerifyDate
	}
	return costVerify
}

// buildIndexTree assembles the printable operator tree for an index
// strategy: result ← verify ← (intersect ←)? access paths.
func (p *Plan) buildIndexTree() {
	p.driver.node = newNode(opName(p.driver), p.driver.describe()+"  [driver]", p.driver.est)
	children := []*Node{p.driver.node}
	surviving := p.driver.est
	universe := max(p.scanCost(), 1)
	for _, ap := range p.extras {
		ap.node = newNode(opName(ap), ap.describe(), ap.est)
		children = append(children, ap.node)
		surviving *= min(ap.est/universe, 1)
	}
	feed := children[0]
	if len(p.extras) > 0 {
		inter := newNode("intersect", "bitmap over candidate contexts", surviving)
		inter.Children = children
		feed = inter
	}
	p.verifyNode = newNode("verify", "structure + remaining predicates", surviving)
	p.verifyNode.Children = []*Node{feed}
	p.Root = newNode("result", p.Expr, surviving)
	p.Root.Children = []*Node{p.verifyNode}
}

func opName(ap *accessPath) string {
	switch ap.kind {
	case pathHashEq:
		return "hash-eq"
	case pathSubstr:
		return "substr"
	}
	return fmt.Sprintf("range(%s)", ap.typeName)
}
