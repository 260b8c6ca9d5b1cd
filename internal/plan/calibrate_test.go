package plan

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/xpath"
)

// Each calibration round times a forced scan, a forced index drive and
// the drive's fetches alone, back to back, and turns the last two into
// ratios to that round's scan, so a slower or faster moment of the
// machine moves every arm of the round together. A constant is checked
// against the median of its per-round ratios. Rounds are added until the
// median is known to within calibrationPrecision — the ratios'
// interquartile range over their median, divided by √rounds, which is
// small against the 2× band — or until calibrationMaxRounds.
const (
	calibrationMinRounds = 9
	calibrationMaxRounds = 41
	calibrationPrecision = 0.05
	// calibrationPostings is the least number of estimated postings one
	// round's fetch timing covers: a small arm's fetch loop repeats until
	// it is long against the clock's jitter.
	calibrationPostings = 1 << 15
)

// calibrationScale is the XMark scale the constants are measured at:
// about 2 MB of XML. The per-posting costs grow with the document (the
// postings of a range scatter over more memory while the scan stays
// sequential); at scale 2 they sit between scale 1 and the served
// benchmark's scale 4.
const calibrationScale = 2

// TestCostConstantsMatchMeasurement is where the constants of cost.go
// come from, and the check that they still hold. For each index arm it
// times a forced scan, a forced index drive and the drive's fetches
// alone (its postings streamed through ContextsFor) in calibration
// rounds. The scan's time per node and attribute is the unit
// (costScanNode). The index time per estimated posting, in that unit, is
// what the arm's fetch and verify constants must add up to; the fetch
// time per estimated posting is its fetch constant. The test logs every
// measured constant, with the spread of its rounds, and fails when one
// in cost.go is more than 2× from what it measures. Timing needs an
// optimised build: it skips under -short and under the race detector.
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
		doc := c.ix.Doc()
		units := float64(doc.NumNodes() + doc.NumAttrs())
		reps := max(1, int(calibrationPostings/est))
		var perPosting, fetchPerPosting []float64
		runtime.GC() // no arm inherits the previous arm's garbage
		for len(perPosting) < calibrationMinRounds ||
			(len(perPosting) < calibrationMaxRounds &&
				max(relIQR(perPosting), relIQR(fetchPerPosting)) > calibrationPrecision*math.Sqrt(float64(len(perPosting)))) {
			scan := timeRun(t, c.ix, path, ForceScan)
			index := timeRun(t, c.ix, path, ForceIndex)
			fetch := timeFetch(c.ix, pl.driver, reps) / time.Duration(reps)
			// One estimated posting's share of the scan's time per unit.
			perUnit := float64(scan) / units * est
			perPosting = append(perPosting, float64(index)/perUnit)
			fetchPerPosting = append(fetchPerPosting, float64(fetch)/perUnit)
		}
		measured, fetched := median(perPosting), median(fetchPerPosting)
		fetchConst := pl.driver.fetchCost()
		t.Logf("%-16s %-53s est %5.0f  %2d rounds  per posting: %5.1f units, IQR %3.0f%% (cost.go %5.1f), fetch %5.1f, IQR %3.0f%% (cost.go %5.1f)",
			c.arm, c.query, est, len(perPosting), measured, 100*relIQR(perPosting), pl.EstCost/est,
			fetched, 100*relIQR(fetchPerPosting), fetchConst)
		checkConstant(t, c.arm+" posting", pl.EstCost/est, measured)
		checkConstant(t, c.arm+" fetch", fetchConst, fetched)
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
// to its contexts, reps times: the driver loop of runNode without
// verification.
func timeFetch(ix *core.Snapshot, ap *accessPath, reps int) time.Duration {
	start := time.Now()
	ex := xpath.NewExec(ix.Doc())
	for range reps {
		it := ap.open(ix)
		for {
			cand, ok := it.Next()
			if !ok {
				break
			}
			ex.ContextsFor(cand, ap.cond)
		}
		it.Close()
	}
	return time.Since(start)
}

func checkConstant(t *testing.T, name string, constant, measured float64) {
	t.Helper()
	if constant > 2*measured || measured > 2*constant {
		t.Errorf("%s: cost.go charges %.1f scan units, measurement gives %.1f: more than 2× apart", name, constant, measured)
	}
}

// median and relIQR summarise per-round ratios: the middle value, and
// the interquartile range over it (+Inf for fewer than four rounds).
func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	return s[len(s)/2]
}

func relIQR(xs []float64) float64 {
	if len(xs) < 4 {
		return math.Inf(1)
	}
	s := slices.Sorted(slices.Values(xs))
	return (s[3*len(s)/4] - s[len(s)/4]) / s[len(s)/2]
}
