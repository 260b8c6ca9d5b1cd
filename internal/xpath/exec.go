package xpath

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/xmltree"
)

// ErrUnsupportedPath reports a parsed path whose shape the evaluators
// cannot answer. Callers match it with errors.Is; the wrapped message
// names the offending step. Before this error existed, such shapes
// silently evaluated to an empty result set.
var ErrUnsupportedPath = errors.New("xpath: unsupported path shape")

// CheckSupported reports whether the evaluators can answer the path:
// attribute steps are only supported as the final step of the main path
// and of a predicate's relative path. Query entry points call this up
// front so unsupported shapes surface as a typed error instead of a
// silently empty result.
func CheckSupported(p *Path) error {
	for si, step := range p.Steps {
		if step.Kind == TestAttr && si != len(p.Steps)-1 {
			return fmt.Errorf("%w: attribute step @%s in the middle of the path (attribute steps must be final)", ErrUnsupportedPath, step.Name)
		}
		for _, pred := range step.Preds {
			for _, c := range pred.Conds {
				for ri, rs := range c.Rel {
					if rs.Kind == TestAttr && ri != len(c.Rel)-1 {
						return fmt.Errorf("%w: attribute step @%s in the middle of a predicate path (attribute steps must be final)", ErrUnsupportedPath, rs.Name)
					}
				}
			}
		}
	}
	return nil
}

// Exec exposes the evaluator's structural machinery — candidate-to-
// context mapping, step/predicate verification, ancestor-chain matching
// — to the planner's executor (internal/plan) without exporting the
// evaluator itself. An Exec reuses its scratch across calls and is not
// safe for concurrent use; create one per query.
type Exec struct {
	ev   evaluator
	seen map[xmltree.NodeID]struct{}
}

// NewExec returns executor machinery over a document version (the
// planner passes the document of the snapshot it pinned).
func NewExec(doc *xmltree.Doc) *Exec {
	return &Exec{ev: evaluator{doc: doc}}
}

// Doc returns the underlying document.
func (e *Exec) Doc() *xmltree.Doc { return e.ev.doc }

// Scan evaluates the path by structural navigation — the planner's
// fallback access path and the correctness oracle.
func (e *Exec) Scan(p *Path) []core.Posting { return e.ev.run(p) }

// ContextsFor maps a value-index candidate back to the context nodes the
// condition's relative path starts from (empty when the candidate's
// shape cannot satisfy the condition).
func (e *Exec) ContextsFor(cand core.Posting, c Cond) []xmltree.NodeID {
	return e.ev.contextsFor(cand, c)
}

// TestMatch reports whether node n passes the step's node test.
func (e *Exec) TestMatch(n xmltree.NodeID, step Step) bool {
	return e.ev.matches(n, e.ev.resolve(step))
}

// PredsHold evaluates every predicate condition at node n.
func (e *Exec) PredsHold(n xmltree.NodeID, preds []Pred) bool { return e.ev.predsHold(n, preds) }

// AttrPredsHold evaluates predicates against attribute a.
func (e *Exec) AttrPredsHold(a xmltree.AttrID, preds []Pred) bool {
	return e.ev.attrPredsHold(a, preds)
}

// MatchesPrefix reports whether node n can be reached through the given
// step prefix followed by a step with the given axis ending at n
// (ancestor-chain structure plus prefix predicates verified).
func (e *Exec) MatchesPrefix(n xmltree.NodeID, prefix []Step, axis Axis) bool {
	return e.ev.matchesAt(n, prefix, axis)
}

// AbsMatches reports whether node n is selected by the absolute path
// steps.
func (e *Exec) AbsMatches(n xmltree.NodeID, steps []Step) bool { return e.ev.absMatches(n, steps) }

// SortPostings orders hits in document order (owner, node-before-attr,
// attribute id) and drops duplicates — the canonical result order every
// evaluation mode produces.
func (e *Exec) SortPostings(ps []core.Posting) []core.Posting {
	return sortPostings(e.ev.doc, ps)
}

// BeginVisit opens a fresh node-dedup scope (the planner's driver loop
// dedupes candidate contexts with it). The scope is a set of the nodes
// visited: memory follows the driver's output, not the document.
func (e *Exec) BeginVisit() {
	if e.seen == nil {
		e.seen = make(map[xmltree.NodeID]struct{})
	}
	clear(e.seen)
}

// Visit marks a node in the current scope, reporting whether it was new.
func (e *Exec) Visit(n xmltree.NodeID) bool {
	_, dup := e.seen[n]
	e.seen[n] = struct{}{}
	return !dup
}
