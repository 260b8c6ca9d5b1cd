// Package plan implements the cost-based query planner: an explicit
// three-stage pipeline (logical plan → physical plan → executor), the
// only route by which a query reaches the value indexes.
//
// The logical side of a query is its parsed path (package xpath). The
// planner enumerates one access path per indexable condition of the
// final step — hash equality on the string equi-index, B+tree range on
// any registered typed index, document scan as the universal fallback —
// estimates each path's cardinality from the core statistics layer
// (distinct-key counts and equi-depth histograms), picks the cheapest
// driver, and intersects additional selective paths through streaming
// posting iterators before the per-context structure and predicate
// verification runs. The chosen operator tree is observable: every plan
// prints as an EXPLAIN tree with estimated and (after execution) actual
// cardinalities per operator.
//
// The scan evaluator (xpath.Evaluate) stays untouched as the
// correctness oracle; the equivalence property tests pin every planning
// mode to it.
package plan

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/xpath"
)

// Mode is the planner knob: how Query chooses its execution strategy.
type Mode int

const (
	// Auto is the cost-based planner (the default): scan vs cheapest
	// index driver vs index intersection, decided per query from the
	// statistics layer.
	Auto Mode = iota
	// ForceScan always evaluates by document scan.
	ForceScan
	// ForceIndex always drives the cheapest index access path, even
	// when the planner would prefer a scan; shapes with no indexable
	// condition still fall back to scanning. ForceScan and ForceIndex
	// are the two arms of the selectivity-crossover ablation.
	ForceIndex
)

func (m Mode) String() string {
	switch m {
	case Auto:
		return "auto"
	case ForceScan:
		return "scan"
	case ForceIndex:
		return "index"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ParseMode resolves the command-line spelling of a planner mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "auto":
		return Auto, nil
	case "scan":
		return ForceScan, nil
	case "index":
		return ForceIndex, nil
	}
	return Auto, fmt.Errorf("plan: unknown planner mode %q (want auto, scan, or index)", s)
}

// Node is one operator of a physical plan tree, annotated with the
// planner's cardinality estimate and, after execution, the actual count
// that flowed through the operator.
type Node struct {
	// Op names the operator: "result", "verify", "intersect",
	// "hash-eq", "range", "substr", "scan".
	Op string
	// Detail describes the operator's parameters (the condition text,
	// the key range, the index used).
	Detail string
	// EstRows is the planner's cardinality estimate; negative when the
	// operator has no meaningful estimate (scan).
	EstRows float64
	// ActRows is filled in by the executor; -1 until the plan ran.
	ActRows int
	// Children are the operator's inputs.
	Children []*Node
}

func newNode(op, detail string, est float64) *Node {
	return &Node{Op: op, Detail: detail, EstRows: est, ActRows: -1}
}

// String renders the node and its subtree as an indented plan tree.
func (n *Node) String() string {
	var b strings.Builder
	n.render(&b, "", true, true)
	return b.String()
}

func (n *Node) render(b *strings.Builder, prefix string, last, root bool) {
	if !root {
		if last {
			b.WriteString(prefix + "└─ ")
			prefix += "   "
		} else {
			b.WriteString(prefix + "├─ ")
			prefix += "│  "
		}
	}
	b.WriteString(n.Op)
	if n.Detail != "" {
		b.WriteString(" " + n.Detail)
	}
	b.WriteString("  (")
	if n.EstRows >= 0 {
		fmt.Fprintf(b, "est %.1f", n.EstRows)
	} else {
		b.WriteString("est -")
	}
	if n.ActRows >= 0 {
		fmt.Fprintf(b, ", actual %d", n.ActRows)
	}
	b.WriteString(")\n")
	for i, c := range n.Children {
		c.render(b, prefix, i == len(n.Children)-1, false)
	}
}

// Plan is a planned query: the chosen operator tree plus everything the
// executor needs to run it. A Plan is bound to the Indexes it was
// planned against and is not safe for concurrent use; plan once per
// query execution.
type Plan struct {
	// Expr is the original expression text.
	Expr string
	// Mode the plan was produced under.
	Mode Mode
	// Root of the printable operator tree.
	Root *Node
	// EstCost is the planner's cost for the chosen strategy, in scan
	// units: one node or attribute visited by the document scan.
	EstCost float64
	// Notes explains access paths the planner had to reject — a
	// contains()/starts-with() pattern shorter than the q-gram width, a
	// substring index that is not enabled, an operand that is not a
	// text()/attribute leaf. They surface in the EXPLAIN output so a
	// query silently running as a scan is observable.
	Notes []string

	ix   *core.Snapshot
	path *xpath.Path

	// Physical choice: nil driver means scan execution.
	driver   *accessPath
	extras   []*accessPath
	attrStep bool

	verifyNode *Node
}

// String renders the whole plan tree, headed by the mode and cost.
func (p *Plan) String() string {
	cost := "-"
	if p.EstCost >= 0 {
		cost = fmt.Sprintf("%.0f", p.EstCost)
	}
	s := fmt.Sprintf("plan(%s, cost %s) %s\n%s", p.Mode, cost, p.Expr, p.Root.String())
	for _, n := range p.Notes {
		s += "note: " + n + "\n"
	}
	return s
}

// UsesIndex reports whether the plan drives an index access path (as
// opposed to a document scan).
func (p *Plan) UsesIndex() bool { return p.driver != nil }

// Intersects reports whether the plan streams additional access paths
// into a bitmap beside the driver.
func (p *Plan) Intersects() bool { return len(p.extras) > 0 }

// pathKind distinguishes the index access-path families.
type pathKind uint8

const (
	pathHashEq pathKind = iota
	pathRange
	pathSubstr
)

// accessPath is one enumerated index access path: a condition of the
// final step, the index that can answer it, the key range to scan, and
// the estimated posting count.
type accessPath struct {
	cond   xpath.Cond
	kind   pathKind
	typeID core.TypeID
	value  string // pathHashEq: the literal to hash and verify
	lo, hi uint64 // pathRange: encoded key bounds
	incLo  bool
	incHi  bool
	est    float64
	node   *Node
}

// open returns the streaming iterator for the access path.
func (ap *accessPath) open(ix *core.Snapshot) *core.PostingIter {
	switch ap.kind {
	case pathHashEq:
		return ix.StringEqIter(ap.value)
	case pathSubstr:
		return ix.SubstrIter(ap.value, ap.cond.Fn == xpath.FnStartsWith)
	}
	return ix.TypedRangeIter(ap.typeID, ap.lo, ap.hi, ap.incLo, ap.incHi)
}

func (ap *accessPath) describe() string {
	switch ap.kind {
	case pathHashEq:
		return fmt.Sprintf("%s = %q", condOperand(ap.cond), ap.value)
	case pathSubstr:
		return fmt.Sprintf("%s(%s, %q)", ap.cond.Fn, condOperand(ap.cond), ap.value)
	}
	lo, hi := "[", "]"
	if !ap.incLo {
		lo = "("
	}
	if !ap.incHi {
		hi = ")"
	}
	return fmt.Sprintf("%s %s %s%#x, %#x%s", condOperand(ap.cond), ap.cond.Op, lo, ap.lo, ap.hi, hi)
}

// condOperand renders a condition's operand path for plan display.
func condOperand(c xpath.Cond) string {
	if c.Dot {
		return "."
	}
	var parts []string
	for i, s := range c.Rel {
		sep := "/"
		if s.Axis == xpath.Descendant {
			sep = "//"
		}
		name := s.Name
		switch s.Kind {
		case xpath.TestAny:
			name = "*"
		case xpath.TestText:
			name = "text()"
		case xpath.TestAttr:
			name = "@" + s.Name
		}
		if i == 0 {
			if s.Axis == xpath.Descendant {
				parts = append(parts, ".//"+name)
			} else {
				parts = append(parts, name)
			}
			continue
		}
		parts = append(parts, sep+name)
	}
	return strings.Join(parts, "")
}
