package plan

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/xpath"
)

// TestPlannerPicksCheaperArm pins the scan-vs-index choice on the served
// benchmark's query shapes, without timing anything. Thresholds are drawn
// from the document's own values the way the benchmark's request
// generator draws them. The wide ranges (a threshold in the bottom 5 % of
// initial or increase values, a birthday among the earliest 5 %) select
// most of a generic index, which verification then mostly discards: the
// scan is cheaper and auto must plan it. The point shapes select a
// handful of postings: auto must drive an index.
func TestPlannerPicksCheaperArm(t *testing.T) {
	xml, err := datagen.Generate("xmark1", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ix := buildDialectDoc(t, string(xml), core.DefaultOptions(), true)
	doc := ix.Doc()

	// values lists the distinct string values of a path's hits, ascending.
	values := func(path string) []string {
		var out []string
		for _, h := range xpath.Evaluate(doc, xpath.MustParse(path)) {
			if h.IsAttr {
				out = append(out, doc.AttrValue(h.Attr))
			} else {
				out = append(out, doc.StringValue(h.Node))
			}
		}
		slices.Sort(out)
		return slices.Compact(out)
	}
	// quantile is the value below which a fraction q of the distinct
	// numeric values lie.
	quantile := func(path string, q float64) string {
		var nums []float64
		for _, v := range values(path) {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				nums = append(nums, f)
			}
		}
		slices.Sort(nums)
		return strconv.FormatFloat(nums[min(int(q*float64(len(nums))), len(nums)-1)], 'f', -1, 64)
	}
	days := values("//person/profile/birthday")
	names := values("//person/name")
	weights := values("//item/weight")
	email := values("//person/emailaddress")[0]
	mailbox := email[len("mailto:"):min(strings.IndexByte(email, '@')+3, len(email))]
	id := values("//person/@id")[0]

	var scans []string
	for _, q := range []float64{0, 0.05} { // both ends of the wide templates' pools
		scans = append(scans,
			"//open_auction[initial > "+quantile("//open_auction/initial", q)+"]",
			"//open_auction[bidder/increase > "+quantile("//open_auction/bidder/increase", q)+"]",
			`//person[profile/birthday >= xs:date("`+days[int(q*float64(len(days)))]+`")]`)
	}
	points := []string{
		"//item[weight = " + weights[len(weights)/2] + "]",
		"//open_auction[initial > " + quantile("//open_auction/initial", 0.99) + "]",
		`//person[name = "` + names[len(names)/2] + `"]`,
		`//person[contains(emailaddress/text(), "` + mailbox + `")]`,
		`//person[starts-with(@id, "` + id[:len(id)-1] + `")]`,
		"//open_auction[current > " + quantile("//open_auction/current", 0.95) + "][quantity = 3]",
		`//person[profile/birthday >= xs:date("` + days[len(days)-len(days)/100] + `")]`,
	}
	for _, c := range []struct {
		queries []string
		index   bool
	}{{scans, false}, {points, true}} {
		for _, q := range c.queries {
			pl, err := Prepare(ix, xpath.MustParse(q), Auto)
			if err != nil {
				t.Fatal(err)
			}
			if pl.UsesIndex() != c.index {
				t.Errorf("%s: uses index %v, want %v\n%s", q, pl.UsesIndex(), c.index, pl)
			}
		}
	}
}
