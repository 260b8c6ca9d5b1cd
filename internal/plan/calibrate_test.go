package plan

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/xpath"
)

// calibrationRounds is how many interleaved scan/index pairs each
// calibration query runs; the best time of each arm counts.
const calibrationRounds = 7

// calibrationScale is the XMark scale the constants are measured at:
// about 2 MB of XML. The per-posting costs grow with the document (the
// postings of a range scatter over more memory while the scan stays
// sequential); at scale 2 they sit between scale 1 and the served
// benchmark's scale 4.
const calibrationScale = 2

// TestCostConstantsMatchMeasurement is where the constants of cost.go
// come from, and the check that they still hold. For each index arm it
// times a forced scan, a forced index drive and the drive's fetches
// alone (its postings streamed through ContextsFor), interleaved, best
// of calibrationRounds. The scan's time per node and attribute is the
// unit (costScanNode). The index time per estimated posting, in that
// unit, is what the arm's fetch and verify constants must add up to; the
// fetch time per estimated posting is its fetch constant. The test logs
// every measured constant and fails when one in cost.go is more than 2×
// from what it measures. Timing needs a quiet, optimised build: it skips
// under -short and under the race detector.
func TestCostConstantsMatchMeasurement(t *testing.T) {
	if testing.Short() {
		t.Skip("timing calibration skipped under -short")
	}
	if raceEnabled {
		t.Skip("timing calibration skipped under the race detector")
	}
	xml, err := datagen.Generate("xmark1", calibrationScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	xmark := buildDialectDoc(t, string(xml), core.DefaultOptions(), false)
	// String equality is estimated as the average cluster of the hash
	// index, which XMark's skewed strings defeat (ROADMAP 5(c)). This
	// document makes the estimate exact: every string value, element
	// values included, is one of 25 that occur 200 times each, and one
	// context in 23 nodes carries the predicate.
	var flat strings.Builder
	flat.WriteString("<r>")
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&flat, "<p><k>v%d</k>", i%25)
		for j := 0; j < 10; j++ {
			fmt.Fprintf(&flat, "<f>w%d.%d</f>", j, i%25)
		}
		flat.WriteString("</p>")
	}
	flat.WriteString("</r>")
	hashDoc := buildDialectDoc(t, flat.String(), core.DefaultOptions(), false)

	for _, c := range []struct {
		arm   string
		ix    *core.Snapshot
		query string
	}{
		{"double, depth 1", xmark, `//open_auction[initial > 100]`},
		{"double, depth 2", xmark, `//open_auction[bidder/increase > 100]`},
		{"date, depth 2", xmark, `//person[profile/birthday >= xs:date("1998-07-01")]`},
		{"hash-eq, depth 1", hashDoc, `//p[k = "v7"]`},
	} {
		path := xpath.MustParse(c.query)
		pl, err := Prepare(c.ix, path, ForceIndex)
		if err != nil {
			t.Fatal(err)
		}
		if pl.driver == nil || len(pl.extras) > 0 {
			t.Fatalf("%s: want a single index driver:\n%s", c.query, pl)
		}
		est := pl.driver.est
		scan, index, fetch := time.Duration(1<<62), time.Duration(1<<62), time.Duration(1<<62)
		for r := 0; r < calibrationRounds; r++ {
			scan = min(scan, timeRun(t, c.ix, path, ForceScan))
			index = min(index, timeRun(t, c.ix, path, ForceIndex))
			fetch = min(fetch, timeFetch(c.ix, pl.driver))
		}
		doc := c.ix.Doc()
		unit := float64(scan) / float64(doc.NumNodes()+doc.NumAttrs())
		perPosting := float64(index) / est / unit
		fetchPerPosting := float64(fetch) / est / unit
		fetchConst := pl.driver.fetchCost()
		t.Logf("%-16s %-53s est %5.0f  scan %5.2f ms (%4.1f ns/unit)  index %5.2f ms  per posting: %5.1f units (cost.go %5.1f), fetch %5.1f (cost.go %5.1f)",
			c.arm, c.query, est, ms(scan), unit, ms(index), perPosting, pl.EstCost/est, fetchPerPosting, fetchConst)
		checkConstant(t, c.arm+" posting", pl.EstCost/est, perPosting)
		checkConstant(t, c.arm+" fetch", fetchConst, fetchPerPosting)
	}
}

// timeRun times planning and executing the query under one mode.
func timeRun(t *testing.T, ix *core.Snapshot, path *xpath.Path, mode Mode) time.Duration {
	start := time.Now()
	if _, _, err := Run(ix, path, mode); err != nil {
		t.Fatal(err)
	}
	return time.Since(start)
}

// timeFetch times streaming an access path's postings and mapping each
// to its contexts: the driver loop of runNode without verification.
func timeFetch(ix *core.Snapshot, ap *accessPath) time.Duration {
	start := time.Now()
	ex := xpath.NewExec(ix.Doc())
	it := ap.open(ix)
	for {
		cand, ok := it.Next()
		if !ok {
			break
		}
		ex.ContextsFor(cand, ap.cond)
	}
	it.Close()
	return time.Since(start)
}

func checkConstant(t *testing.T, name string, constant, measured float64) {
	t.Helper()
	if constant > 2*measured || measured > 2*constant {
		t.Errorf("%s: cost.go charges %.1f scan units, measurement gives %.1f: more than 2× apart", name, constant, measured)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
