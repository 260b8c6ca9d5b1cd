package xpath

import (
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/xmltree"
)

// Evaluate runs the path over the document by structural navigation and
// value materialisation — the index-less baseline.
func Evaluate(doc *xmltree.Doc, path *Path) []core.Posting {
	ev := &evaluator{doc: doc}
	return ev.run(path)
}

type evaluator struct {
	doc *xmltree.Doc

	// stepSeen and relSeen are reusable epoch-stamped visit sets
	// replacing the per-step map[NodeID]bool and dedupe allocations on
	// the evaluation hot path. stepSeen serves the top-level step loops
	// (run, and the planner's driver loop through Exec.BeginVisit — never
	// active at the same time); relSeen serves the step loop inside
	// relNodes, which runs nested within a stepSeen scope but never
	// within itself (relative-path steps carry no predicates), so the two
	// sets never clobber each other.
	stepSeen visitSet
	relSeen  visitSet
}

// visitSet marks visited node ids with an epoch stamp; bumping the epoch
// clears the whole set in O(1), so one backing store per evaluator is
// reused across steps and queries. Two representations share the
// interface: scan-shaped scopes (which touch most of the document
// anyway) pre-size a dense array, while selective index-driven scopes
// use a retained epoch map and never pay O(document) per query. Once a
// dense array exists it serves sparse scopes too — the array is already
// paid for.
type visitSet struct {
	marks  []uint32
	sparse map[xmltree.NodeID]uint32
	epoch  uint32
}

// beginDense starts a fresh scope over ids [0, n), backed by an array.
func (v *visitSet) beginDense(n int) {
	if len(v.marks) < n {
		v.marks = make([]uint32, n)
		v.epoch = 0
	}
	v.bump()
}

// beginSparse starts a fresh scope without pre-sizing: marks live in a
// reused epoch map (unless a dense array already exists), created
// lazily on the first add so empty scopes cost nothing.
func (v *visitSet) beginSparse() { v.bump() }

func (v *visitSet) bump() {
	if v.epoch == ^uint32(0) {
		for i := range v.marks {
			v.marks[i] = 0
		}
		v.sparse = nil
		v.epoch = 0
	}
	v.epoch++
}

// add marks id and reports whether it was new in this scope.
func (v *visitSet) add(id xmltree.NodeID) bool {
	if v.marks != nil {
		if v.marks[id] == v.epoch {
			return false
		}
		v.marks[id] = v.epoch
		return true
	}
	if v.sparse[id] == v.epoch {
		return false
	}
	if v.sparse == nil {
		v.sparse = make(map[xmltree.NodeID]uint32)
	}
	v.sparse[id] = v.epoch
	return true
}

// --- scan evaluation ---

func (ev *evaluator) run(path *Path) []core.Posting {
	doc := ev.doc
	contexts := []xmltree.NodeID{doc.Root()}
	for si, step := range path.Steps {
		if step.Kind == TestAttr {
			// Attribute steps terminate the node phase.
			if si != len(path.Steps)-1 {
				return nil // unsupported mid-path attribute step
			}
			var out []core.Posting
			for _, n := range contexts {
				out = append(out, ev.attrStep(n, step)...)
			}
			return sortPostings(doc, out)
		}
		var next []xmltree.NodeID
		ev.stepSeen.beginDense(doc.NumNodes())
		for _, n := range contexts {
			ev.nodeStep(n, step, func(m xmltree.NodeID) {
				if ev.stepSeen.add(m) {
					next = append(next, m)
				}
			})
		}
		contexts = next
		if len(contexts) == 0 {
			return nil
		}
	}
	out := make([]core.Posting, 0, len(contexts))
	for _, n := range contexts {
		out = append(out, core.NodePosting(n))
	}
	return sortPostings(doc, out)
}

// nodeStep yields the nodes selected by one non-attribute step from n,
// with predicates applied.
func (ev *evaluator) nodeStep(n xmltree.NodeID, step Step, yield func(xmltree.NodeID)) {
	doc := ev.doc
	emit := func(m xmltree.NodeID) {
		if ev.testMatch(m, step) && ev.predsHold(m, step.Preds) {
			yield(m)
		}
	}
	if step.Axis == Child {
		for c := doc.FirstChild(n); c != xmltree.InvalidNode; c = doc.NextSibling(c) {
			emit(c)
		}
		return
	}
	doc.Descendants(n, func(m xmltree.NodeID) bool {
		emit(m)
		return true
	})
}

func (ev *evaluator) attrStep(n xmltree.NodeID, step Step) []core.Posting {
	doc := ev.doc
	collect := func(m xmltree.NodeID, out []core.Posting) []core.Posting {
		lo, hi := doc.AttrRange(m)
		for a := lo; a < hi; a++ {
			if step.Name == "*" || doc.AttrName(a) == step.Name {
				if ev.attrPredsHold(a, step.Preds) {
					out = append(out, core.AttrPosting(a))
				}
			}
		}
		return out
	}
	var out []core.Posting
	if step.Axis == Child {
		out = collect(n, out)
		return out
	}
	doc.Descendants(n, func(m xmltree.NodeID) bool {
		if doc.Kind(m) == xmltree.Element {
			out = collect(m, out)
		}
		return true
	})
	return out
}

func (ev *evaluator) testMatch(n xmltree.NodeID, step Step) bool {
	doc := ev.doc
	switch step.Kind {
	case TestAny:
		return doc.Kind(n) == xmltree.Element
	case TestName:
		return doc.Kind(n) == xmltree.Element && doc.Name(n) == step.Name
	case TestText:
		return doc.Kind(n) == xmltree.Text
	}
	return false
}

func (ev *evaluator) predsHold(n xmltree.NodeID, preds []Pred) bool {
	for _, p := range preds {
		for _, c := range p.Conds {
			if !ev.condHolds(n, c) {
				return false
			}
		}
	}
	return true
}

func (ev *evaluator) attrPredsHold(a xmltree.AttrID, preds []Pred) bool {
	for _, p := range preds {
		for _, c := range p.Conds {
			if !c.Dot {
				return false // attributes have no children
			}
			if !condMatch(ev.doc.AttrValue(a), c) {
				return false
			}
		}
	}
	return true
}

// condMatch applies one condition to one operand value: a text-predicate
// function when Fn is set, the comparison operator otherwise.
func condMatch(value string, c Cond) bool {
	switch c.Fn {
	case FnContains:
		return strings.Contains(value, c.Lit.Str)
	case FnStartsWith:
		return strings.HasPrefix(value, c.Lit.Str)
	}
	return compareString(value, c.Op, c.Lit)
}

// condHolds implements XPath existential comparison semantics: the
// condition holds if ANY operand node satisfies the comparison.
func (ev *evaluator) condHolds(n xmltree.NodeID, c Cond) bool {
	if c.Dot {
		return condMatch(ev.doc.StringValue(n), c)
	}
	found := false
	ev.relNodes(n, c.Rel, func(value string) bool {
		if condMatch(value, c) {
			found = true
			return false
		}
		return true
	})
	return found
}

// relNodes yields the string values selected by a relative path from n;
// yield returning false stops early.
func (ev *evaluator) relNodes(n xmltree.NodeID, rel []Step, yield func(string) bool) {
	doc := ev.doc
	contexts := []xmltree.NodeID{n}
	for i, step := range rel {
		last := i == len(rel)-1
		if step.Kind == TestAttr {
			if !last {
				return
			}
			for _, ctx := range contexts {
				stop := false
				walk := func(m xmltree.NodeID) {
					lo, hi := doc.AttrRange(m)
					for a := lo; a < hi && !stop; a++ {
						if step.Name == "*" || doc.AttrName(a) == step.Name {
							if !yield(doc.AttrValue(a)) {
								stop = true
							}
						}
					}
				}
				if step.Axis == Child {
					walk(ctx)
				} else {
					doc.Descendants(ctx, func(m xmltree.NodeID) bool {
						if doc.Kind(m) == xmltree.Element {
							walk(m)
						}
						return !stop
					})
				}
				if stop {
					return
				}
			}
			return
		}
		var next []xmltree.NodeID
		stop := false
		if !last {
			// Follow the query's shape: scan evaluation (dense stepSeen
			// already paid for) dedupes densely; a selective index drive
			// stays sparse so predicates on few candidates cost O(matches).
			if ev.stepSeen.marks != nil {
				ev.relSeen.beginDense(doc.NumNodes())
			} else {
				ev.relSeen.beginSparse()
			}
		}
		for _, ctx := range contexts {
			ev.nodeStep(ctx, Step{Axis: step.Axis, Kind: step.Kind, Name: step.Name}, func(m xmltree.NodeID) {
				if stop {
					return
				}
				if last {
					if !yield(doc.StringValue(m)) {
						stop = true
					}
					return
				}
				if ev.relSeen.add(m) {
					next = append(next, m)
				}
			})
			if stop {
				return
			}
		}
		if last {
			return
		}
		contexts = next
		if len(contexts) == 0 {
			return
		}
	}
}

func dedupe(ns []xmltree.NodeID) []xmltree.NodeID {
	if len(ns) < 2 {
		return ns
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	out := ns[:1]
	for _, n := range ns[1:] {
		if n != out[len(out)-1] {
			out = append(out, n)
		}
	}
	return out
}

// compareString applies a comparison between an untyped node value and a
// literal: numeric literals compare through the xs:double cast, xs:date
// literals through the date cast (FSM semantics in both cases, so mixed
// content works); string literals compare as strings (lexicographically
// for the relational operators).
func compareString(value string, op CmpOp, lit Literal) bool {
	if lit.IsNum {
		v, ok := castDouble(value)
		if !ok {
			return false
		}
		return compareFloat(v, op, lit.Num)
	}
	if lit.IsDate {
		d, ok := castDate(value)
		if !ok {
			return false
		}
		return compareInt(d, op, lit.Days)
	}
	switch op {
	case OpEq:
		return value == lit.Str
	case OpNe:
		return value != lit.Str
	case OpLt:
		return strings.Compare(value, lit.Str) < 0
	case OpLe:
		return strings.Compare(value, lit.Str) <= 0
	case OpGt:
		return strings.Compare(value, lit.Str) > 0
	case OpGe:
		return strings.Compare(value, lit.Str) >= 0
	}
	return false
}

func compareFloat(v float64, op CmpOp, lit float64) bool {
	switch op {
	case OpEq:
		return v == lit
	case OpNe:
		return v != lit
	case OpLt:
		return v < lit
	case OpLe:
		return v <= lit
	case OpGt:
		return v > lit
	case OpGe:
		return v >= lit
	}
	return false
}

func compareInt(v int64, op CmpOp, lit int64) bool {
	switch op {
	case OpEq:
		return v == lit
	case OpNe:
		return v != lit
	case OpLt:
		return v < lit
	case OpLe:
		return v <= lit
	case OpGt:
		return v > lit
	case OpGe:
		return v >= lit
	}
	return false
}

func castDouble(s string) (float64, bool) {
	f, ok := fsm.Double().ParseFragString(s)
	if !ok {
		return 0, false
	}
	return fsm.DoubleValue(f)
}

func castDate(s string) (int64, bool) {
	f, ok := fsm.Date().ParseFragString(s)
	if !ok {
		return 0, false
	}
	return fsm.DateValue(f)
}

func sortPostings(doc *xmltree.Doc, ps []core.Posting) []core.Posting {
	key := func(p core.Posting) (xmltree.NodeID, int, xmltree.AttrID) {
		if p.IsAttr {
			return doc.AttrOwner(p.Attr), 1, p.Attr
		}
		return p.Node, 0, 0
	}
	sort.Slice(ps, func(i, j int) bool {
		ni, ti, ai := key(ps[i])
		nj, tj, aj := key(ps[j])
		if ni != nj {
			return ni < nj
		}
		if ti != tj {
			return ti < tj
		}
		return ai < aj
	})
	// Dedupe.
	out := ps[:0]
	for i, p := range ps {
		if i == 0 || p != ps[i-1] {
			out = append(out, p)
		}
	}
	return out
}

// --- bottom-up verification (the planner's index strategies) ---

// absMatches reports whether node n is selected by the absolute path
// steps (test, predicates, and ancestor-chain structure all verified).
func (ev *evaluator) absMatches(n xmltree.NodeID, steps []Step) bool {
	if len(steps) == 0 {
		return n == ev.doc.Root()
	}
	last := steps[len(steps)-1]
	return ev.testMatch(n, last) && ev.predsHold(n, last.Preds) &&
		ev.matchesAt(n, steps[:len(steps)-1], last.Axis)
}

// contextsFor maps a value-matching candidate back to the nodes the
// condition's relative path starts from.
func (ev *evaluator) contextsFor(cand core.Posting, c Cond) []xmltree.NodeID {
	doc := ev.doc
	if c.Dot {
		if cand.IsAttr {
			return nil
		}
		return []xmltree.NodeID{cand.Node}
	}
	rel := c.Rel
	lastStep := rel[len(rel)-1]
	if lastStep.Kind == TestAttr {
		if !cand.IsAttr {
			return nil
		}
		if lastStep.Name != "*" && doc.AttrName(cand.Attr) != lastStep.Name {
			return nil
		}
		// An attribute belongs to its owner: a child-axis attribute step
		// starts AT the owner; a descendant step starts at any proper
		// ancestor of the owner.
		owner := doc.AttrOwner(cand.Attr)
		var pre []xmltree.NodeID
		if lastStep.Axis == Child {
			pre = []xmltree.NodeID{owner}
		} else {
			pre = doc.Ancestors(owner)
		}
		var out []xmltree.NodeID
		for _, p := range pre {
			out = append(out, ev.elemContexts(p, rel[:len(rel)-1])...)
		}
		return dedupe(out)
	}
	if cand.IsAttr {
		return nil
	}
	return ev.elemContexts(cand.Node, rel)
}

// elemContexts returns the context nodes from which the relative
// element/text path steps selects m (tests verified, bottom-up).
func (ev *evaluator) elemContexts(m xmltree.NodeID, steps []Step) []xmltree.NodeID {
	if len(steps) == 0 {
		return []xmltree.NodeID{m}
	}
	doc := ev.doc
	last := steps[len(steps)-1]
	if !ev.testMatch(m, last) {
		return nil
	}
	var prevs []xmltree.NodeID
	if last.Axis == Child {
		if p := doc.Parent(m); p != xmltree.InvalidNode {
			prevs = append(prevs, p)
		}
	} else {
		prevs = doc.Ancestors(m)
	}
	var out []xmltree.NodeID
	for _, p := range prevs {
		out = append(out, ev.elemContexts(p, steps[:len(steps)-1])...)
	}
	return dedupe(out)
}

// matchesAt reports whether node n can be selected by the given step
// prefix followed by a step with the given axis ending at n; i.e., n's
// ancestor chain matches the absolute path prefix. Predicates on prefix
// steps are evaluated too.
func (ev *evaluator) matchesAt(n xmltree.NodeID, prefix []Step, axis Axis) bool {
	doc := ev.doc
	var parents []xmltree.NodeID
	if axis == Child {
		if p := doc.Parent(n); p != xmltree.InvalidNode {
			parents = append(parents, p)
		}
	} else {
		parents = doc.Ancestors(n)
	}
	if len(prefix) == 0 {
		for _, p := range parents {
			if p == doc.Root() {
				return true
			}
		}
		return false
	}
	lastIdx := len(prefix) - 1
	st := prefix[lastIdx]
	for _, p := range parents {
		if ev.testMatch(p, st) && ev.predsHold(p, st.Preds) &&
			ev.matchesAt(p, prefix[:lastIdx], st.Axis) {
			return true
		}
	}
	return false
}
