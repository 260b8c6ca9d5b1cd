package xpath

import (
	"bytes"
	"cmp"
	"slices"

	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/xmltree"
)

// Evaluate runs the path over the document by structural navigation and
// value materialisation — the index-less baseline.
func Evaluate(doc *xmltree.Doc, path *Path) []core.Posting {
	ev := evaluator{doc: doc}
	return ev.run(path)
}

// evaluator answers queries over one document version. Its buffers are
// reused from step to step and query to query; it is not safe for
// concurrent use.
type evaluator struct {
	doc *xmltree.Doc

	// ctx holds run's context lists and rel those of a predicate's
	// relative path, each a pair swapped from step to step. condHolds
	// runs inside run's steps but never inside itself (relative-path
	// steps carry no predicates), so the pairs never clobber each other.
	ctx, rel [2][]xmltree.NodeID
	// val holds an element's concatenated text while a condition tests it.
	val []byte
	// items is the typed casts' parse buffer.
	items []fsm.Item
	// names memoises the dictionary ids of the query's step names.
	names []nameID
}

type nameID struct {
	name string
	id   xmltree.NameID
}

// test is a step's node test resolved against the document (the name
// once per query): a kind and a dictionary name id. anyName matches
// every name; a name missing from the dictionary resolves to -1, which
// no node or attribute carries.
type test struct {
	kind xmltree.Kind
	name xmltree.NameID
}

const (
	anyName  xmltree.NameID = -2
	attrKind xmltree.Kind   = 255 // attribute tests match no tree node
)

func (ev *evaluator) resolve(s Step) test {
	t := test{xmltree.Element, anyName}
	switch {
	case s.Kind == TestText:
		t.kind = xmltree.Text
	case s.Kind == TestAttr:
		t.kind = attrKind
	}
	if (s.Kind == TestName || s.Kind == TestAttr) && s.Name != "*" {
		t.name = ev.nameID(s.Name)
	}
	return t
}

func (ev *evaluator) nameID(name string) xmltree.NameID {
	for _, e := range ev.names {
		if e.name == name {
			return e.id
		}
	}
	id := ev.doc.NameIDOf(name)
	ev.names = append(ev.names, nameID{name, id})
	return id
}

func (ev *evaluator) matches(n xmltree.NodeID, t test) bool {
	return ev.doc.Kind(n) == t.kind && (t.name == anyName || ev.doc.NameID(n) == t.name)
}

func (ev *evaluator) attrMatches(a xmltree.AttrID, t test) bool {
	return t.name == anyName || ev.doc.AttrNameID(a) == t.name
}

// --- scan evaluation ---

// run evaluates the path from the document node. The steps keep their
// context lists distinct without a visit set (see step), and in document
// order unless a child step from nested contexts broke it, so the hits
// are sorted only then.
func (ev *evaluator) run(path *Path) []core.Posting {
	ctxs, next := append(ev.ctx[0][:0], ev.doc.Root()), ev.ctx[1]
	defer func() { ev.ctx = [2][]xmltree.NodeID{ctxs, next} }()
	sorted := true
	for si, st := range path.Steps {
		if st.Kind == TestAttr {
			// Attribute steps terminate the node phase.
			if si != len(path.Steps)-1 {
				return nil // unsupported mid-path attribute step
			}
			return ev.attrStep(ctxs, sorted, st)
		}
		next, sorted = ev.step(ctxs, sorted, st, next)
		ctxs, next = next, ctxs
		if len(ctxs) == 0 {
			return nil
		}
	}
	if !sorted {
		slices.Sort(ctxs)
	}
	out := make([]core.Posting, len(ctxs))
	for i, n := range ctxs {
		out[i] = core.NodePosting(n)
	}
	return out
}

// step appends to out[:0] the nodes one element or text step selects
// from ctxs, predicates applied, testing the kind and name columns in
// one pass over each context's children or subtree, a column chunk at a
// time. It reports whether
// out is in document order. Given distinct contexts out is distinct: a
// node has one parent, and a descendant step visits the contexts in
// document order (sorting them unless sorted says they are) and skips
// each one nested in the subtree it has just covered.
func (ev *evaluator) step(ctxs []xmltree.NodeID, sorted bool, st Step, out []xmltree.NodeID) ([]xmltree.NodeID, bool) {
	out = out[:0]
	t := ev.resolve(st)
	if t.name == -1 {
		return out, true // the name occurs nowhere in the document
	}
	if st.Axis == Child {
		sorted = true
		for _, n := range ctxs {
			base := n
			kind, name, size := ev.doc.Chunk(n)
			for c, end := n+1, n+xmltree.NodeID(size[0]); c <= end; c += xmltree.NodeID(size[c-base]) + 1 {
				if int(c-base) >= len(kind) {
					base = c
					kind, name, size = ev.doc.Chunk(c)
				}
				if kind[c-base] == t.kind && (t.name == anyName || name[c-base] == t.name) && ev.predsHold(c, st.Preds) {
					sorted = sorted && (len(out) == 0 || out[len(out)-1] < c)
					out = append(out, c)
				}
			}
		}
		return out, sorted
	}
	if !sorted {
		slices.Sort(ctxs)
	}
	covered := xmltree.NodeID(-1)
	for _, n := range ctxs {
		if n <= covered {
			continue
		}
		covered = n + xmltree.NodeID(ev.doc.Size(n))
		for c := n + 1; c <= covered; {
			// The name column first: a named test rarely matches it, and
			// then the kind column is never read.
			kind, name, _ := ev.doc.Chunk(c)
			name = name[:min(len(name), int(covered-c)+1)]
			kind = kind[:len(name)]
			for i, nm := range name {
				if (nm == t.name || t.name == anyName) && kind[i] == t.kind {
					if m := c + xmltree.NodeID(i); ev.predsHold(m, st.Preds) {
						out = append(out, m)
					}
				}
			}
			c += xmltree.NodeID(len(name))
		}
	}
	return out, true
}

// attrStep selects a final attribute step's hits from ctxs, in document
// order: attribute ids follow their owners.
func (ev *evaluator) attrStep(ctxs []xmltree.NodeID, sorted bool, st Step) []core.Posting {
	if !sorted {
		slices.Sort(ctxs)
	}
	t := ev.resolve(st)
	var out []core.Posting
	covered := xmltree.NodeID(-1)
	for _, n := range ctxs {
		if n <= covered {
			continue // its descendants' attributes are already out
		}
		if st.Axis == Descendant {
			covered = n + xmltree.NodeID(ev.doc.Size(n))
		}
		lo, hi := ev.attrRange(n, st.Axis)
		for a := lo; a < hi; a++ {
			if ev.attrMatches(a, t) && ev.attrPredsHold(a, st.Preds) {
				out = append(out, core.AttrPosting(a))
			}
		}
	}
	return out
}

// attrRange is the ids of the attributes an attribute step on axis can
// select from n: its own, or all of its proper descendants', one range
// because attribute ids follow their owners' document order.
func (ev *evaluator) attrRange(n xmltree.NodeID, axis Axis) (lo, hi xmltree.AttrID) {
	lo, hi = ev.doc.AttrRange(n)
	if axis == Descendant {
		_, end := ev.doc.AttrRange(n + xmltree.NodeID(ev.doc.Size(n)))
		lo, hi = hi, end
	}
	return lo, hi
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
			if !ev.condMatch(ev.doc.AttrValueBytes(a), c) {
				return false
			}
		}
	}
	return true
}

// condHolds implements XPath existential comparison semantics: the
// condition holds if ANY operand node satisfies the comparison. The
// relative path's element and text steps run as step does, into the rel
// buffers; a final attribute step tests its attributes in place.
func (ev *evaluator) condHolds(n xmltree.NodeID, c Cond) bool {
	if c.Dot {
		return ev.condMatch(ev.value(n), c)
	}
	steps, last := c.Rel, c.Rel[len(c.Rel)-1]
	if last.Kind == TestAttr {
		steps = steps[:len(steps)-1]
	}
	ctxs, next := append(ev.rel[0][:0], n), ev.rel[1]
	sorted := true
	for _, st := range steps {
		next, sorted = ev.step(ctxs, sorted, st, next)
		ctxs, next = next, ctxs
	}
	ev.rel = [2][]xmltree.NodeID{ctxs, next}
	if last.Kind != TestAttr {
		for _, m := range ctxs {
			if ev.condMatch(ev.value(m), c) {
				return true
			}
		}
		return false
	}
	t := ev.resolve(last)
	for _, m := range ctxs {
		lo, hi := ev.attrRange(m, last.Axis)
		for a := lo; a < hi; a++ {
			if ev.attrMatches(a, t) && ev.condMatch(ev.doc.AttrValueBytes(a), c) {
				return true
			}
		}
	}
	return false
}

// value is n's string value as heap bytes: its own character data, an
// element's single text child, or else its descendant text concatenated
// into ev.val, valid until the next call.
func (ev *evaluator) value(n xmltree.NodeID) []byte {
	switch k := ev.doc.Kind(n); {
	case k != xmltree.Element && k != xmltree.Document:
		return ev.doc.ValueBytes(n)
	case ev.doc.Size(n) == 1 && ev.doc.Kind(n+1) == xmltree.Text:
		return ev.doc.ValueBytes(n + 1)
	}
	ev.val = ev.doc.AppendStringValue(ev.val[:0], n)
	return ev.val
}

// condMatch applies one condition to one operand value: a text-predicate
// function when Fn is set, the comparison operator otherwise.
func (ev *evaluator) condMatch(value []byte, c Cond) bool {
	switch c.Fn {
	case FnContains:
		return bytes.Contains(value, []byte(c.Lit.Str))
	case FnStartsWith:
		return bytes.HasPrefix(value, []byte(c.Lit.Str))
	}
	return ev.compare(value, c.Op, c.Lit)
}

func dedupe(ns []xmltree.NodeID) []xmltree.NodeID {
	slices.Sort(ns)
	return slices.Compact(ns)
}

// compare applies a comparison between an untyped node value and a
// literal: numeric literals compare through the xs:double cast, xs:date
// literals through the date cast (FSM semantics in both cases, so mixed
// content works); string literals compare as strings (lexicographically
// for the relational operators).
func (ev *evaluator) compare(value []byte, op CmpOp, lit Literal) bool {
	if lit.IsNum {
		v, ok := castDouble(value, &ev.items)
		if !ok {
			return false
		}
		return compareFloat(v, op, lit.Num)
	}
	if lit.IsDate {
		d, ok := castDate(value, &ev.items)
		if !ok {
			return false
		}
		return compareInt(d, op, lit.Days)
	}
	switch op {
	case OpEq:
		return string(value) == lit.Str
	case OpNe:
		return string(value) != lit.Str
	case OpLt:
		return string(value) < lit.Str
	case OpLe:
		return string(value) <= lit.Str
	case OpGt:
		return string(value) > lit.Str
	case OpGe:
		return string(value) >= lit.Str
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

// castDouble and castDate parse into *items, which the next cast reuses.
func castDouble(b []byte, items *[]fsm.Item) (float64, bool) {
	f, ok := fsm.Double().AppendFrag(*items, b)
	if !ok {
		return 0, false
	}
	*items = f.Items
	return fsm.DoubleValue(f)
}

func castDate(b []byte, items *[]fsm.Item) (int64, bool) {
	f, ok := fsm.Date().AppendFrag(*items, b)
	if !ok {
		return 0, false
	}
	*items = f.Items
	return fsm.DateValue(f)
}

func sortPostings(doc *xmltree.Doc, ps []core.Posting) []core.Posting {
	key := func(p core.Posting) xmltree.NodeID {
		if p.IsAttr {
			return doc.AttrOwner(p.Attr)
		}
		return p.Node
	}
	isAttr := func(p core.Posting) int {
		if p.IsAttr {
			return 1
		}
		return 0
	}
	slices.SortFunc(ps, func(a, b core.Posting) int {
		return cmp.Or(cmp.Compare(key(a), key(b)), cmp.Compare(isAttr(a), isAttr(b)), cmp.Compare(a.Attr, b.Attr))
	})
	return slices.Compact(ps)
}

// --- bottom-up verification (the planner's index strategies) ---

// absMatches reports whether node n is selected by the absolute path
// steps (test, predicates, and ancestor-chain structure all verified).
func (ev *evaluator) absMatches(n xmltree.NodeID, steps []Step) bool {
	if len(steps) == 0 {
		return n == ev.doc.Root()
	}
	last := steps[len(steps)-1]
	return ev.matches(n, ev.resolve(last)) && ev.predsHold(n, last.Preds) &&
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
	if !ev.matches(m, ev.resolve(last)) {
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
		if ev.matches(p, ev.resolve(st)) && ev.predsHold(p, st.Preds) &&
			ev.matchesAt(p, prefix[:lastIdx], st.Axis) {
			return true
		}
	}
	return false
}
