package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	xmlvi "repro"
	"repro/bench/layers"
)

// The request generator. Everything it sends is drawn from the served
// document's own value domain, collected once at set-up through the public
// xmlvi API; the server sees only the generated requests.

// field is one kind of leaf element: where its instances are, and which
// values they take.
type field struct {
	Targets []int32  // element node ids; each has exactly one text child
	Values  []string // distinct values, ascending
}

// domain is the value domain of one document.
type domain struct {
	ItemWeight      field
	ItemLocation    field
	ItemName        field
	AuctionInitial  field
	AuctionCurrent  field
	AuctionQuantity field
	BidderIncrease  field
	PersonName      field
	PersonEmail     field
	PersonBirthday  field
	PersonIDs       []string // @id values of person elements
	Auctions        []int32  // open_auction elements, the set_attr targets
	AuctionIDs      []string // their @id values

	// Structural patches append to and remove from the end of TailParent,
	// the document's last element, so that no other node id moves.
	TailParent   int32
	TailChildren int
	Nodes        int
}

// collectDomain queries doc for every field the workloads draw from.
func collectDomain(doc *xmlvi.Document) (*domain, error) {
	d := &domain{Nodes: doc.NumNodes()}
	fields := []struct {
		into *field
		path string
	}{
		{&d.ItemWeight, "//item/weight"},
		{&d.ItemLocation, "//item/location"},
		{&d.ItemName, "//item/name"},
		{&d.AuctionInitial, "//open_auction/initial"},
		{&d.AuctionCurrent, "//open_auction/current"},
		{&d.AuctionQuantity, "//open_auction/quantity"},
		{&d.BidderIncrease, "//open_auction/bidder/increase"},
		{&d.PersonName, "//person/name"},
		{&d.PersonEmail, "//person/emailaddress"},
		{&d.PersonBirthday, "//person/profile/birthday"},
	}
	for _, f := range fields {
		hits, err := doc.Query(f.path)
		if err != nil {
			return nil, fmt.Errorf("domain %s: %w", f.path, err)
		}
		if len(hits) == 0 {
			return nil, fmt.Errorf("domain %s: no nodes", f.path)
		}
		seen := make(map[string]bool, len(hits))
		for _, h := range hits {
			f.into.Targets = append(f.into.Targets, int32(h.Node))
			if v := h.Value(); !seen[v] {
				seen[v] = true
				f.into.Values = append(f.into.Values, v)
			}
		}
		sort.Strings(f.into.Values)
	}
	for _, a := range []struct {
		into *[]string
		path string
	}{
		{&d.PersonIDs, "//person/@id"},
		{&d.AuctionIDs, "//open_auction/@id"},
	} {
		hits, err := doc.Query(a.path)
		if err != nil {
			return nil, fmt.Errorf("domain %s: %w", a.path, err)
		}
		for _, h := range hits {
			*a.into = append(*a.into, h.Value())
		}
	}
	// An attribute hit names the attribute, not its owner; the owners are
	// the open_auction elements, in the same document order.
	auctions, err := doc.Query("//open_auction")
	if err != nil {
		return nil, fmt.Errorf("domain //open_auction: %w", err)
	}
	if len(auctions) != len(d.AuctionIDs) || len(auctions) == 0 {
		return nil, fmt.Errorf("domain: %d open_auction elements but %d @id values", len(auctions), len(d.AuctionIDs))
	}
	for _, h := range auctions {
		d.Auctions = append(d.Auctions, int32(h.Node))
	}
	tail, err := doc.Query("/site/open_auctions")
	if err != nil || len(tail) != 1 {
		return nil, fmt.Errorf("domain /site/open_auctions: %d hits, %v", len(tail), err)
	}
	d.TailParent = int32(tail[0].Node)
	d.TailChildren = len(doc.Children(tail[0].Node))
	return d, nil
}

// readReq is one query as sent: the marshalled body, and for the traced
// run the index condition the query was built around (nil for shapes that
// bypass the index).
type readReq struct {
	Query string
	Body  []byte
	Cond  *layers.IndexCond
}

func newReadReq(query string, cond *layers.IndexCond) *readReq {
	body, err := json.Marshal(queryRequest{Query: query})
	if err != nil {
		panic(err) // a struct of one string always marshals
	}
	return &readReq{Query: query, Body: body, Cond: cond}
}

// template is one query shape with its pool of parameterised instances.
// Instances are drawn with a Zipf(1.1) skew over the pool's order, which
// newReadMix shuffles per seed.
type template struct {
	Name   string
	Weight float64
	Pool   []*readReq
}

// poolCap bounds the distinct instances per template: enough for a long
// tail, few enough that the top of every template's Zipf repeats often.
const poolCap = 128

// zipfS is the skew of the parameter choice. With seven templates of up
// to poolCap instances each, 48 % of the point mix's requests and 61 % of
// the scan mix's repeat one of the 20 most frequent query strings.
const zipfS = 1.1

// readMix draws queries: a template by weight, then an instance by Zipf.
type readMix struct {
	templates []template
	cum       []float64
}

func newReadMix(templates []template, seed int64) *readMix {
	rng := rand.New(rand.NewSource(seed))
	m := &readMix{templates: templates}
	total := 0.0
	for i := range templates {
		t := &templates[i]
		if len(t.Pool) == 0 {
			panic("template " + t.Name + " has no instances")
		}
		rng.Shuffle(len(t.Pool), func(a, b int) { t.Pool[a], t.Pool[b] = t.Pool[b], t.Pool[a] })
		if len(t.Pool) > poolCap {
			t.Pool = t.Pool[:poolCap]
		}
		total += t.Weight
		m.cum = append(m.cum, total)
	}
	for i := range m.cum {
		m.cum[i] /= total
	}
	return m
}

// distinct lists every instance of the mix, template by template.
func (m *readMix) distinct() []*readReq {
	var out []*readReq
	for _, t := range m.templates {
		out = append(out, t.Pool...)
	}
	return out
}

// readStream is one client's endless sequence of queries.
type readStream struct {
	mix   *readMix
	rng   *rand.Rand
	zipfs []*rand.Zipf
}

func (m *readMix) stream(seed int64, client int) *readStream {
	rng := rand.New(rand.NewSource(seed*1000 + int64(client)))
	s := &readStream{mix: m, rng: rng}
	for _, t := range m.templates {
		var z *rand.Zipf
		if len(t.Pool) > 1 {
			z = rand.NewZipf(rng, zipfS, 1, uint64(len(t.Pool)-1))
		}
		s.zipfs = append(s.zipfs, z)
	}
	return s
}

func (s *readStream) next() *readReq {
	x := s.rng.Float64()
	ti := sort.SearchFloat64s(s.mix.cum, x)
	if ti == len(s.mix.cum) {
		ti--
	}
	t := s.mix.templates[ti]
	if s.zipfs[ti] == nil {
		return t.Pool[0]
	}
	return t.Pool[s.zipfs[ti].Uint64()]
}

// quantileSlice is the part of an ascending slice between the quantiles lo
// and hi (0..1), never empty.
func quantileSlice(values []float64, lo, hi float64) []float64 {
	a, b := int(lo*float64(len(values))), int(hi*float64(len(values)))
	b = min(max(b, a+1), len(values))
	return values[a:b]
}

func numeric(values []string) []float64 {
	out := make([]float64, 0, len(values))
	for _, v := range values {
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			out = append(out, f)
		}
	}
	sort.Float64s(out)
	return out
}

func fmtNum(f float64) string { return strconv.FormatFloat(f, 'f', -1, 64) }

const dateLayout = "2006-01-02"

// epochDays is the xs:date index's key domain.
func epochDays(t time.Time) float64 { return float64(t.Unix() / 86400) }

// pointMix is the read-point workload: selective predicates the planner
// answers from an index, a handful of hits each.
func pointMix(d *domain, seed int64) (*readMix, error) {
	var ts []template

	// double equality: about six items share a weight
	t := template{Name: "double-eq", Weight: 1}
	for _, w := range numeric(d.ItemWeight.Values) {
		t.Pool = append(t.Pool, newReadReq("//item[weight = "+fmtNum(w)+"]",
			&layers.IndexCond{Kind: "double", Lo: w, Hi: w, IncLo: true, IncHi: true}))
	}
	ts = append(ts, t)

	// narrow range: thresholds between the 99th and the 99.5th percentile of
	// the values, so that every instance has between 0.5 % and 1 % of them
	// above it. A band, here and below, keeps the cost of a template's
	// instances within a factor of two: which instance a seed puts at the
	// top of the Zipf then moves the workload's cost by little.
	t = template{Name: "double-range", Weight: 1}
	for _, x := range quantileSlice(numeric(d.AuctionInitial.Values), 0.99, 0.995) {
		t.Pool = append(t.Pool, newReadReq("//open_auction[initial > "+fmtNum(x)+"]",
			&layers.IndexCond{Kind: "double", Lo: x, Hi: maxFloat, IncHi: true}))
	}
	ts = append(ts, t)

	t = template{Name: "string-eq", Weight: 1}
	for _, n := range d.PersonName.Values {
		t.Pool = append(t.Pool, newReadReq(`//person[name = "`+n+`"]`,
			&layers.IndexCond{Kind: "string", Str: n}))
	}
	ts = append(ts, t)

	// contains: the mailbox name and the first letters of the host, at
	// least q = 3 bytes, so the q-gram index answers
	t = template{Name: "contains", Weight: 1}
	seen := map[string]bool{}
	for _, e := range d.PersonEmail.Values {
		at := strings.IndexByte(e, '@')
		if at < 0 || !strings.HasPrefix(e, "mailto:") {
			continue
		}
		p := e[len("mailto:"):min(at+3, len(e))]
		if len(p) < 3 || seen[p] {
			continue
		}
		seen[p] = true
		t.Pool = append(t.Pool, newReadReq(`//person[contains(emailaddress/text(), "`+p+`")]`,
			&layers.IndexCond{Kind: "contains", Str: p}))
	}
	ts = append(ts, t)

	// starts-with: a four-digit id minus its last digit matches eleven ids
	t = template{Name: "starts-with", Weight: 1}
	seen = map[string]bool{}
	for _, id := range d.PersonIDs {
		if len(id) != len("person")+4 {
			continue
		}
		p := id[:len(id)-1]
		if seen[p] {
			continue
		}
		seen[p] = true
		t.Pool = append(t.Pool, newReadReq(`//person[starts-with(@id, "`+p+`")]`,
			&layers.IndexCond{Kind: "starts-with", Str: p}))
	}
	ts = append(ts, t)

	// conjunction: a range with 2.5 % to 5 % of the values above it and an
	// equality, two predicates
	t = template{Name: "conjunction", Weight: 1}
	quantities := numeric(d.AuctionQuantity.Values)
	for i, p := range quantileSlice(numeric(d.AuctionCurrent.Values), 0.95, 0.975) {
		q := quantities[i%len(quantities)]
		t.Pool = append(t.Pool, newReadReq("//open_auction[current > "+fmtNum(p)+"][quantity = "+fmtNum(q)+"]",
			&layers.IndexCond{Kind: "double", Lo: p, Hi: maxFloat, IncHi: true}))
	}
	ts = append(ts, t)

	// narrow date range: thresholds with 0.5 % to 1 % of the dates after
	// them. One open
	// bound, because the planner prices each condition of "a <= x and
	// x <= b" as a half-open range of its own and the query then costs what
	// half the index costs, whatever the distance from a to b.
	t = template{Name: "date-range", Weight: 1}
	days := d.PersonBirthday.Values
	for _, b := range days[len(days)-max(len(days)/100, 2) : len(days)-max(len(days)/200, 1)] {
		from, err := time.Parse(dateLayout, b)
		if err != nil {
			continue
		}
		t.Pool = append(t.Pool, newReadReq(`//person[profile/birthday >= xs:date("`+b+`")]`,
			&layers.IndexCond{Kind: "date", Lo: epochDays(from), Hi: maxDays, IncLo: true, IncHi: true}))
	}
	ts = append(ts, t)

	for _, t := range ts {
		if len(t.Pool) == 0 {
			return nil, fmt.Errorf("read-point template %s: the document has no values for it", t.Name)
		}
	}
	return newReadMix(ts, seed), nil
}

// Open upper bounds of the index conditions.
const (
	maxFloat = 1.7976931348623157e308
	maxDays  = 1e15
)

// scanMix is the read-scan workload: 60 % shapes no index can answer and
// 40 % ranges so wide that an index only adds work; up to 1000 hits are
// serialised per response.
func scanMix(d *domain, seed int64) (*readMix, error) {
	var ts []template
	ts = append(ts,
		template{Name: "path-name", Weight: 0.15, Pool: []*readReq{newReadReq("//person/name", nil)}},
		template{Name: "path-location", Weight: 0.15, Pool: []*readReq{newReadReq("//item/location", nil)}},
	)

	// contains with a pattern shorter than q: two-byte pieces of names
	t := template{Name: "contains-short", Weight: 0.15}
	seen := map[string]bool{}
	for _, n := range d.PersonName.Values {
		if len(n) < 3 {
			continue
		}
		p := strings.ToLower(n[1:3])
		if seen[p] || strings.ContainsAny(p, `"\ `) {
			continue
		}
		seen[p] = true
		t.Pool = append(t.Pool, newReadReq(`//person[contains(name/text(), "`+p+`")]`, nil))
	}
	ts = append(ts, t)

	// contains over an element's concatenated string value
	t = template{Name: "contains-element", Weight: 0.15}
	seen = map[string]bool{}
	for _, n := range d.ItemName.Values {
		w, _, _ := strings.Cut(n, " ")
		if len(w) < 3 || seen[w] || strings.ContainsAny(w, `"\`) {
			continue
		}
		seen[w] = true
		t.Pool = append(t.Pool, newReadReq(`//item[contains(description, "`+w+`")]`, nil))
	}
	ts = append(ts, t)

	// wide ranges: thresholds in the bottom 5 % of the values
	wide := 0.4 / 3
	t = template{Name: "wide-initial", Weight: wide}
	for _, x := range quantileSlice(numeric(d.AuctionInitial.Values), 0, 0.05) {
		t.Pool = append(t.Pool, newReadReq("//open_auction[initial > "+fmtNum(x)+"]",
			&layers.IndexCond{Kind: "double", Lo: x, Hi: maxFloat, IncHi: true}))
	}
	ts = append(ts, t)
	t = template{Name: "wide-increase", Weight: wide}
	for _, x := range quantileSlice(numeric(d.BidderIncrease.Values), 0, 0.05) {
		t.Pool = append(t.Pool, newReadReq("//open_auction[bidder/increase > "+fmtNum(x)+"]",
			&layers.IndexCond{Kind: "double", Lo: x, Hi: maxFloat, IncHi: true}))
	}
	ts = append(ts, t)
	t = template{Name: "wide-date", Weight: wide}
	days := d.PersonBirthday.Values
	for _, b := range days[:max(len(days)/20, 1)] {
		from, err := time.Parse(dateLayout, b)
		if err != nil {
			continue
		}
		t.Pool = append(t.Pool, newReadReq(`//person[profile/birthday >= xs:date("`+b+`")]`,
			&layers.IndexCond{Kind: "date", Lo: epochDays(from), Hi: maxDays, IncLo: true, IncHi: true}))
	}
	ts = append(ts, t)

	for _, t := range ts {
		if len(t.Pool) == 0 {
			return nil, fmt.Errorf("read-scan template %s: the document has no values for it", t.Name)
		}
	}
	return newReadMix(ts, seed), nil
}

// Patch kinds.
const (
	kindSetText = "set_text"
	kindSetAttr = "set_attr"
	kindInsert  = "insert"
	kindDelete  = "delete"
)

// patchReq is one patch before it is sent. Structural patches carry no
// node yet: where the document's tail is depends on the structural patches
// acknowledged before, so the writer fills that in when it sends.
type patchReq struct {
	Kind string
	Ops  []patchOp
}

// textBatch is how many set_text ops one patch carries.
const textBatch = 4

// patchStream is one writer's endless sequence of patches.
type patchStream struct {
	d          *domain
	rng        *rand.Rand
	structural bool // false: set_text batches only (the mixed workload and the probes)
	fragments  int
	client     int
}

func newPatchStream(d *domain, seed int64, client int, structural bool) *patchStream {
	return &patchStream{d: d, rng: rand.New(rand.NewSource(seed*1000 + 500 + int64(client))), structural: structural, client: client}
}

// rewritable are the fields set_text draws targets from; new values come
// from the same field, so the value distributions stay as generated while
// index keys move.
func (d *domain) rewritable() []*field {
	return []*field{&d.ItemWeight, &d.ItemLocation, &d.AuctionInitial, &d.AuctionCurrent,
		&d.AuctionQuantity, &d.PersonName, &d.PersonEmail, &d.PersonBirthday}
}

func (s *patchStream) next() patchReq {
	kind := kindSetText
	if s.structural {
		switch x := s.rng.Float64(); {
		case x < 0.80:
		case x < 0.90:
			kind = kindSetAttr
		case x < 0.95:
			kind = kindInsert
		default:
			kind = kindDelete
		}
	}
	switch kind {
	case kindSetAttr:
		node := s.d.Auctions[s.rng.Intn(len(s.d.Auctions))]
		return patchReq{Kind: kind, Ops: []patchOp{{Op: kind, Node: &node, Name: "id",
			Value: s.d.AuctionIDs[s.rng.Intn(len(s.d.AuctionIDs))]}}}
	case kindInsert, kindDelete:
		// A delete carries a spare fragment too: with nothing left to
		// delete, the writer inserts it instead (tail.fill).
		s.fragments++
		return patchReq{Kind: kind, Ops: []patchOp{{Op: kind, XML: s.fragment()}}}
	}
	fields := s.d.rewritable()
	ops := make([]patchOp, 0, textBatch)
	for len(ops) < textBatch {
		f := fields[s.rng.Intn(len(fields))]
		node := f.Targets[s.rng.Intn(len(f.Targets))]
		dup := false
		for _, op := range ops {
			dup = dup || *op.Node == node
		}
		if dup {
			continue
		}
		ops = append(ops, patchOp{Op: kindSetText, Node: &node, Value: f.Values[s.rng.Intn(len(f.Values))]})
	}
	return patchReq{Kind: kind, Ops: ops}
}

// fragmentNodes is the number of tree nodes in one inserted fragment: the
// open_auction element, three leaf elements and their three text nodes.
const fragmentNodes = 7

// fragment is a small open_auction whose values come from the domain.
func (s *patchStream) fragment() string {
	pick := func(f *field) string { return f.Values[s.rng.Intn(len(f.Values))] }
	return fmt.Sprintf(`<open_auction id="bench%d-%d"><initial>%s</initial><current>%s</current><quantity>%s</quantity></open_auction>`,
		s.client, s.fragments, pick(&s.d.AuctionInitial), pick(&s.d.AuctionCurrent), pick(&s.d.AuctionQuantity))
}

// dueTime is when the i-th request of an open loop is due: the schedule is
// fixed at the start and does not move when the server is slow.
func dueTime(start time.Time, i int, perSecond float64) time.Time {
	return start.Add(time.Duration(float64(i) / perSecond * float64(time.Second)))
}
