package xmlvi_test

import (
	"errors"
	"strings"
	"testing"

	xmlvi "repro"
)

const plannerDoc = `<site>
  <person id="p1"><income>99000</income><birthday>1955-04-02</birthday></person>
  <person id="p2"><income>12000</income><birthday>1980-09-17</birthday></person>
  <person id="p3"><income>98000</income><birthday>1992-01-30</birthday></person>
  <person id="p4"><income>97000</income><birthday>1958-12-01</birthday></person>
</site>`

// TestQueryUnsupportedPathTyped is the regression test for the silent
// nil: mid-path attribute steps must fail with ErrUnsupportedPath from
// Query, QueryScan, and Explain — not return an empty result set.
func TestQueryUnsupportedPathTyped(t *testing.T) {
	doc, err := xmlvi.ParseString(plannerDoc)
	if err != nil {
		t.Fatal(err)
	}
	for _, expr := range []string{`//@id/income`, `/site/@id/person[income = 1]`} {
		if _, err := doc.Query(expr); !errors.Is(err, xmlvi.ErrUnsupportedPath) {
			t.Errorf("Query(%q) err = %v, want ErrUnsupportedPath", expr, err)
		}
		if _, err := doc.QueryScan(expr); !errors.Is(err, xmlvi.ErrUnsupportedPath) {
			t.Errorf("QueryScan(%q) err = %v, want ErrUnsupportedPath", expr, err)
		}
		if _, _, err := doc.Explain(expr); !errors.Is(err, xmlvi.ErrUnsupportedPath) {
			t.Errorf("Explain(%q) err = %v, want ErrUnsupportedPath", expr, err)
		}
	}
	// Supported shapes still answer.
	res, err := doc.Query(`//person[income > 95000]`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
}

// TestExplainAPI pins the public EXPLAIN surface: a conjunctive query
// produces a printable plan with estimates and actuals, results match
// Query, and the planner knob switches strategies.
func TestExplainAPI(t *testing.T) {
	doc, err := xmlvi.ParseString(plannerDoc)
	if err != nil {
		t.Fatal(err)
	}
	expr := `//person[income > 95000 and birthday < xs:date("1960-01-01")]`
	res, plan, err := doc.Explain(expr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := doc.Query(expr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(want) || len(res) != 2 {
		t.Fatalf("Explain returned %d results, Query %d, want 2", len(res), len(want))
	}
	s := plan.String()
	if !strings.Contains(s, "est ") || !strings.Contains(s, "actual ") {
		t.Errorf("plan missing cardinalities:\n%s", s)
	}
	if plan.Root.ActRows != 2 {
		t.Errorf("root actual = %d, want 2", plan.Root.ActRows)
	}

	// The knob: forced scan answers identically, and reports a scan op.
	doc.SetPlanner(xmlvi.PlannerForceScan)
	if doc.Planner() != xmlvi.PlannerForceScan {
		t.Fatal("SetPlanner did not stick")
	}
	res2, plan2, err := doc.Explain(expr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2) != 2 {
		t.Fatalf("forced scan: %d results, want 2", len(res2))
	}
	if plan2.UsesIndex() {
		t.Errorf("forced scan used an index:\n%s", plan2)
	}
	for _, mode := range []xmlvi.PlannerMode{xmlvi.PlannerForceIndex, xmlvi.PlannerAuto} {
		doc.SetPlanner(mode)
		r, err := doc.Query(expr)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if len(r) != 2 {
			t.Fatalf("mode %v: %d results, want 2", mode, len(r))
		}
	}
}

// TestPlannerOptionThreadsThrough pins Options.Planner.
func TestPlannerOptionThreadsThrough(t *testing.T) {
	doc, err := xmlvi.ParseWithOptions([]byte(plannerDoc), xmlvi.Options{Planner: xmlvi.PlannerForceScan})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Planner() != xmlvi.PlannerForceScan {
		t.Fatalf("planner = %v, want scan", doc.Planner())
	}
	// Unknown spellings, the retired "legacy"/"off" included, are errors
	// rather than a silent fallback to some other mode.
	for _, bad := range []string{"nope", "legacy", "off"} {
		if _, err := xmlvi.ParsePlannerMode(bad); err == nil {
			t.Fatalf("ParsePlannerMode accepted %q", bad)
		}
	}
	m, err := xmlvi.ParsePlannerMode("index")
	if err != nil || m != xmlvi.PlannerForceIndex {
		t.Fatalf("ParsePlannerMode(index) = %v, %v", m, err)
	}
}
