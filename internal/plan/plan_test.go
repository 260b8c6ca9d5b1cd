package plan

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/xmlparse"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// allModes are every planning strategy; each must be result-equivalent
// to the scan oracle.
var allModes = []Mode{Auto, ForceScan, ForceIndex}

// corpusDoc is one indexed document of the shared shape corpus.
type corpusDoc struct {
	name string
	ix   *core.Snapshot
}

// queryCorpus returns the documents the equivalence property runs over:
// the XMark stand-in plus the pathological shapes the parallel-build and
// recovery properties use (deep chains, all-attribute documents, mixed
// content), all indexed with every built-in type.
func queryCorpus(t testing.TB) []corpusDoc {
	t.Helper()
	var out []corpusDoc
	add := func(name string, xml []byte) {
		doc, err := xmlparse.Parse(xml)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, corpusDoc{name: name, ix: core.Build(doc, core.DefaultOptions()).Snapshot()})
	}

	xmark, err := datagen.Generate("xmark1", 0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	add("xmark", xmark)

	var deep strings.Builder
	deep.WriteString("<r>")
	for i := 0; i < 120; i++ {
		fmt.Fprintf(&deep, "<lvl><n>%d.5</n><when>19%02d-03-15</when>", i, i%100)
	}
	deep.WriteString("bottom")
	for i := 0; i < 120; i++ {
		deep.WriteString("</lvl>")
	}
	deep.WriteString("</r>")
	add("deep-chain", []byte(deep.String()))

	var attrs strings.Builder
	attrs.WriteString("<r>")
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&attrs, `<e a="%d" b="%d.%02d" when="19%02d-0%d-1%d"/>`, i, i, i%100, i%100, i%9+1, i%3)
	}
	attrs.WriteString("</r>")
	add("all-attributes", []byte(attrs.String()))

	var mixed strings.Builder
	mixed.WriteString("<r>7")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&mixed, "<w><v>%d</v></w>", i%50)
	}
	mixed.WriteString("8<!--note--><?pi data?></r>")
	add("mixed-content", []byte(mixed.String()))

	return out
}

// corpusQueries exercises every access-path family and fallback: string
// equality, numeric and date ranges, conjunctions (intersectable and
// not), dot and relative-path operands, attribute steps, text steps,
// wildcard tests, and non-indexable shapes.
var corpusQueries = []string{
	`//item[quantity = 7]`,
	`//person[profile/age = 42]`,
	`//open_auction[initial > 4990]`,
	`//open_auction[initial > 10]`,
	`//item[location = "Amsterdam"]`,
	`//item[location = "Amsterdam" and quantity = 7]`,
	`//person[profile/income > 10 and profile/birthday < xs:date("1960-01-01")]`,
	`//person[profile/income > 95000 and profile/birthday < xs:date("1960-01-01")]`,
	`//person[.//age = 42]`,
	`//person[profile/age >= 18 and profile/age <= 30]`,
	`//person/profile[age != 42]`,
	`//person/@id[. = "person3"]`,
	`//*[@id = "person3"]`,
	`//e[@b > 398.5]`,
	`//e[@a = "7" and @b < 100]`,
	`//e[@when >= xs:date("1950-01-01") and @when < xs:date("1960-01-01")]`,
	`//r/e[@a = "7"]`,
	`//lvl[n > 118]`,
	`//lvl[n > 1.5 and when < xs:date("1903-01-01")]`,
	`//lvl/n[. = 42.5]`,
	`//w[v = 7]`,
	`//w/v/text()[. = "7"]`,
	`//v[. >= 48]`,
	`//r[. > 0]`,
	`/r/w[v = "7"]`,
	`//does-not-exist[x = 1]`,
	`//name`,
	`//*`,
}

func postingsEqual(a, b []core.Posting) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPlannedEquivalence is the planner-vs-scan property: for every
// corpus document, query, and planning mode, the planned execution is
// identical (same postings, same order) to the scan oracle.
func TestPlannedEquivalence(t *testing.T) {
	for _, cd := range queryCorpus(t) {
		for _, q := range corpusQueries {
			path, err := xpath.Parse(q)
			if err != nil {
				t.Fatalf("parse %q: %v", q, err)
			}
			oracle := xpath.Evaluate(cd.ix.Doc(), path)
			for _, mode := range allModes {
				got, pl, err := Run(cd.ix, path, mode)
				if err != nil {
					t.Fatalf("%s %q mode=%s: %v", cd.name, q, mode, err)
				}
				if !postingsEqual(got, oracle) {
					t.Errorf("%s %q mode=%s: got %d hits, oracle %d\nplan:\n%s",
						cd.name, q, mode, len(got), len(oracle), pl)
				}
			}
		}
	}
}

// TestPlannedEquivalenceAfterUpdates re-runs the property on a mutated
// index (updates shift histograms and postings; estimates may be stale
// but results must not be).
func TestPlannedEquivalenceAfterUpdates(t *testing.T) {
	xml, err := datagen.Generate("xmark1", 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmlparse.Parse(xml)
	if err != nil {
		t.Fatal(err)
	}
	idx := core.Build(doc, core.DefaultOptions())
	// Rewrite a slice of text nodes so histograms churn.
	var updates []core.TextUpdate
	for i := 0; i < doc.NumNodes() && len(updates) < 500; i++ {
		if doc.Kind(xmltree.NodeID(i)) == xmltree.Text {
			updates = append(updates, core.TextUpdate{Node: xmltree.NodeID(i), Value: fmt.Sprintf("%d", i%97)})
		}
	}
	if err := idx.UpdateTexts(updates); err != nil {
		t.Fatal(err)
	}
	ix := idx.Snapshot() // plan against the post-update version
	for _, q := range []string{
		`//item[quantity = 7]`,
		`//open_auction[initial > 4990]`,
		`//person[profile/income > 10 and profile/birthday < xs:date("1960-01-01")]`,
		`//item[. = 42]`,
	} {
		path := xpath.MustParse(q)
		oracle := xpath.Evaluate(ix.Doc(), path)
		for _, mode := range allModes {
			got, pl, err := Run(ix, path, mode)
			if err != nil {
				t.Fatalf("%q mode=%s: %v", q, mode, err)
			}
			if !postingsEqual(got, oracle) {
				t.Errorf("%q mode=%s after updates: got %d hits, oracle %d\nplan:\n%s",
					q, mode, len(got), len(oracle), pl)
			}
		}
	}
}

// TestUnsupportedPathError pins the typed error: mid-path attribute
// steps fail with xpath.ErrUnsupportedPath under every mode instead of
// silently returning nothing.
func TestUnsupportedPathError(t *testing.T) {
	doc, err := xmlparse.ParseString(`<r><e a="1"><b>x</b></e></r>`)
	if err != nil {
		t.Fatal(err)
	}
	ix := core.Build(doc, core.DefaultOptions()).Snapshot()
	for _, q := range []string{`//@a/b`, `/r/@a/b[x = 1]`} {
		path, err := xpath.Parse(q)
		if err != nil {
			t.Skipf("dialect rejects %q outright: %v", q, err)
		}
		for _, mode := range allModes {
			_, _, err := Run(ix, path, mode)
			if !errors.Is(err, xpath.ErrUnsupportedPath) {
				t.Errorf("%q mode=%s: err = %v, want ErrUnsupportedPath", q, mode, err)
			}
		}
	}
}

// TestPlannerChoosesSelectiveDriver pins the heart of the cost model:
// with an unselective first predicate and a selective second one, the
// planner must drive the selective one — on a synthetic document and on
// the XMark conjunction (income > 10 matches nearly every person, the
// birthday window a few percent).
func TestPlannerChoosesSelectiveDriver(t *testing.T) {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 2000; i++ {
		// income > 0 matches everything; age = i is nearly unique.
		fmt.Fprintf(&b, "<p><income>%d</income><age>%d</age></p>", 1000+i%7, i)
	}
	b.WriteString("</r>")
	xmark, err := datagen.Generate("xmark1", 0.15, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		xml, query, driver string
	}{
		{b.String(), `//p[income > 0 and age = 1234]`, "age"},
		{string(xmark), `//person[profile/income > 10 and profile/birthday < xs:date("1998-03-01")]`, "profile/birthday"},
	} {
		doc, err := xmlparse.ParseString(c.xml)
		if err != nil {
			t.Fatal(err)
		}
		ix := core.Build(doc, core.DefaultOptions()).Snapshot()
		path := xpath.MustParse(c.query)
		pl, err := Prepare(ix, path, Auto)
		if err != nil {
			t.Fatal(err)
		}
		if pl.driver == nil {
			t.Fatalf("%s: planner chose scan:\n%s", c.query, pl)
		}
		if got := condOperand(pl.driver.cond); got != c.driver {
			t.Fatalf("%s: driver operand = %s, want %s\n%s", c.query, got, c.driver, pl)
		}
		got := pl.Execute()
		oracle := xpath.Evaluate(doc, path)
		if !postingsEqual(got, oracle) {
			t.Fatalf("%s: driver-choice plan wrong: %d hits, oracle %d", c.query, len(got), len(oracle))
		}
	}
}

// TestPlannerIntersects pins the new capability: two selective
// predicates produce an intersect operator, and the executed actuals
// show the bitmap filtering driver contexts before verification. An
// extra path is never smaller than the driver, so it pays only when
// streaming its posting costs less than verifying a driver posting:
// a hash path always (costFetchHash < costVerify), a typed range only
// under a date-range driver (costVerify < costFetchRange <
// costVerifyDate). Two equal-size double ranges therefore do not
// intersect.
func TestPlannerIntersects(t *testing.T) {
	day := time.Date(1900, 1, 1, 0, 0, 0, 0, time.UTC)
	cases := []struct {
		name, query string
		row         func(i int) string
		extraOp     string // the extra path's operator, "" for none
	}{
		{"hash extra", `//p[x = "a7" and y = "b10"]`, func(i int) string {
			return fmt.Sprintf("<x>a%d</x><y>b%d</y>", i%200, (i+3)%190)
		}, "hash-eq"},
		{"range extra under a date driver", `//p[d < xs:date("1900-01-05") and v < 3]`, func(i int) string {
			return fmt.Sprintf("<d>%s</d><v>%d</v>", day.AddDate(0, 0, i%250).Format("2006-01-02"), i%180)
		}, "range(double)"},
		{"range extra under a double driver", `//p[x = 7 and y = 10]`, func(i int) string {
			return fmt.Sprintf("<x>%d</x><y>%d</y>", i%200, (i+3)%190)
		}, ""},
	}
	for _, c := range cases {
		var b strings.Builder
		b.WriteString("<r>")
		for i := 0; i < 4000; i++ {
			fmt.Fprintf(&b, "<p>%s</p>", c.row(i))
		}
		b.WriteString("</r>")
		doc, err := xmlparse.ParseString(b.String())
		if err != nil {
			t.Fatal(err)
		}
		ix := core.Build(doc, core.DefaultOptions()).Snapshot()
		path := xpath.MustParse(c.query)
		pl, err := Prepare(ix, path, Auto)
		if err != nil {
			t.Fatal(err)
		}
		if pl.driver == nil {
			t.Fatalf("%s: planner chose the scan:\n%s", c.name, pl)
		}
		extraOp := ""
		if len(pl.extras) > 0 {
			extraOp = opName(pl.extras[0])
		}
		if extraOp != c.extraOp {
			t.Fatalf("%s: extra path %q, want %q:\n%s", c.name, extraOp, c.extraOp, pl)
		}
		got := pl.Execute()
		oracle := xpath.Evaluate(doc, path)
		if len(oracle) == 0 || !postingsEqual(got, oracle) {
			t.Fatalf("%s: plan wrong: %d hits, oracle %d", c.name, len(got), len(oracle))
		}
		if c.extraOp == "" {
			continue
		}
		if !strings.Contains(pl.String(), "intersect") {
			t.Errorf("%s: plan tree missing intersect node:\n%s", c.name, pl)
		}
		// The verify operator must have seen no more contexts than the
		// driver produced (the bitmap can only shrink the set).
		if pl.verifyNode.ActRows > pl.driver.node.ActRows {
			t.Errorf("%s: verify saw %d contexts, driver fetched %d", c.name, pl.verifyNode.ActRows, pl.driver.node.ActRows)
		}
	}
}

// TestExplainReportsCardinalities pins the EXPLAIN contract: estimates
// are present before execution, actuals after, and the printable tree
// carries both.
func TestExplainReportsCardinalities(t *testing.T) {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&b, "<p><v>%d</v></p>", i)
	}
	b.WriteString("</r>")
	doc, err := xmlparse.ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	ix := core.Build(doc, core.DefaultOptions()).Snapshot()
	path := xpath.MustParse(`//p[v >= 100 and v < 200]`)
	pl, err := Prepare(ix, path, ForceIndex)
	if err != nil {
		t.Fatal(err)
	}
	if pl.driver == nil {
		t.Fatalf("ForceIndex chose scan:\n%s", pl)
	}
	est := pl.driver.node.EstRows
	if est <= 0 {
		t.Fatalf("driver estimate missing:\n%s", pl)
	}
	// The equi-depth histogram should land within 3x of the true 100.
	if est < 33 || est > 300 {
		t.Errorf("driver estimate %.1f for a 100-row range, want within [33,300]", est)
	}
	if pl.driver.node.ActRows != -1 {
		t.Errorf("actuals filled before execution")
	}
	res := pl.Execute()
	if pl.driver.node.ActRows < 100 {
		t.Errorf("driver actual = %d, want >= 100", pl.driver.node.ActRows)
	}
	if pl.Root.ActRows != len(res) {
		t.Errorf("root actual = %d, want %d", pl.Root.ActRows, len(res))
	}
	s := pl.String()
	if !strings.Contains(s, "est ") || !strings.Contains(s, "actual ") {
		t.Errorf("plan tree missing cardinalities:\n%s", s)
	}
}
