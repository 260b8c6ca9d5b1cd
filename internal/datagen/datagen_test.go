package datagen

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/vhash"
	"repro/internal/xmlparse"
	"repro/internal/xmltree"
)

// statsOf shreds a generated dataset and measures the Table 1 columns.
func statsOf(t *testing.T, name string, scale float64) (total, texts, dblTexts, nonLeaf int) {
	t.Helper()
	xml, err := Generate(name, scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmlparse.Parse(xml)
	if err != nil {
		t.Fatalf("%s does not parse: %v", name, err)
	}
	ix := core.Build(doc, core.Options{Types: []core.TypeID{core.TypeDouble}})
	s := ix.Snapshot().Stats()
	// Table 1 counts elements + texts as "Total Nodes" and castable text
	// nodes as "Double Values" (see DESIGN.md).
	dbl, _ := s.TypedFor(core.TypeDouble)
	return s.Elements + s.Texts, s.Texts, dbl.CastableTexts, dbl.NonLeaf
}

// TestDistributionsMatchTable1 checks every dataset against its paper row
// within tolerances: text share ±8 points, double share ±4 points.
func TestDistributionsMatchTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation is slow in -short mode")
	}
	for _, name := range Names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			scale := 0.1
			if name == "xmark4" || name == "xmark8" || name == "psd" || name == "wiki" || name == "dblp" {
				scale = 0.05
			}
			total, texts, dblTexts, nonLeaf := statsOf(t, name, scale)
			paper := PaperTable1[name]
			textPct := 100 * float64(texts) / float64(total)
			dblPct := 100 * float64(dblTexts) / float64(total)
			t.Logf("%s: %d nodes, %.1f%% texts (paper %.0f%%), %.1f%% doubles (paper %.1f%%), %d non-leaf (paper %d)",
				name, total, textPct, paper.TextPct, dblPct, paper.DoublePct, nonLeaf, paper.NonLeaf)
			if diff := textPct - paper.TextPct; diff < -8 || diff > 8 {
				t.Errorf("text share %.1f%% too far from paper's %.0f%%", textPct, paper.TextPct)
			}
			if diff := dblPct - paper.DoublePct; diff < -4 || diff > 4 {
				t.Errorf("double share %.1f%% too far from paper's %.1f%%", dblPct, paper.DoublePct)
			}
			if paper.NonLeaf == 0 && nonLeaf > total/1000 {
				t.Errorf("unexpected non-leaf doubles: %d", nonLeaf)
			}
			if paper.NonLeaf > 0 && nonLeaf == 0 {
				t.Errorf("expected some non-leaf doubles, got none")
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Generate("xmark1", 0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate("xmark1", 0.02, 7)
	if string(a) != string(b) {
		t.Error("same seed must give identical bytes")
	}
	c, _ := Generate("xmark1", 0.02, 8)
	if string(a) == string(c) {
		t.Error("different seed should give different bytes")
	}
}

func TestScaleGrowsOutput(t *testing.T) {
	small, _ := Generate("epageo", 0.02, 1)
	big, _ := Generate("epageo", 0.08, 1)
	if len(big) < len(small)*2 {
		t.Errorf("scale 0.08 (%d bytes) should be much larger than 0.02 (%d bytes)", len(big), len(small))
	}
}

func TestUnknownDatasetRejected(t *testing.T) {
	if _, err := Generate("nope", 1, 1); err == nil {
		t.Error("unknown dataset must error")
	}
	if _, err := Generate("xmark1", -1, 1); err == nil {
		t.Error("negative scale must error")
	}
}

func TestAllDatasetsParseAndValidate(t *testing.T) {
	for _, name := range Names {
		xml, err := Generate(name, 0.02, 3)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := xmlparse.Parse(xml)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := doc.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestCollisionURLFamilyCollides verifies the engineered 27-stride
// property: every member of a family hashes identically yet differs as a
// string — the mechanism behind the paper's Figure 11 tail.
func TestCollisionURLFamilyCollides(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		k := 2 + rng.Intn(8)
		fam := CollisionURLFamily(rng, k)
		if len(SortedUnique(append([]string(nil), fam...))) != k {
			t.Fatalf("family members not distinct: %v", fam)
		}
		h := vhash.HashString(fam[0])
		for _, u := range fam[1:] {
			if vhash.HashString(u) != h {
				t.Fatalf("family member %q does not collide with %q", u, fam[0])
			}
		}
	}
}

// TestWikiProducesCollisionClusters: a generated wiki document must
// contain hash clusters of size >= 4 among its distinct string values.
func TestWikiProducesCollisionClusters(t *testing.T) {
	xml, err := Generate("wiki", 0.05, 2)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmlparse.Parse(xml)
	if err != nil {
		t.Fatal(err)
	}
	byHash := make(map[uint32]map[string]bool)
	for i := 0; i < doc.NumNodes(); i++ {
		n := xmltree.NodeID(i)
		if doc.Kind(n) != xmltree.Text {
			continue
		}
		v := doc.Value(n)
		h := vhash.HashString(v)
		if byHash[h] == nil {
			byHash[h] = make(map[string]bool)
		}
		byHash[h][v] = true
	}
	max := 0
	for _, set := range byHash {
		if len(set) > max {
			max = len(set)
		}
	}
	t.Logf("wiki: max distinct strings per hash = %d", max)
	if max < 4 {
		t.Errorf("expected collision clusters >= 4, got %d", max)
	}
}

// TestDblpNonLeafDoubles: the injected mixed-content years must be real
// non-leaf doubles per the FSM semantics.
func TestDblpNonLeafDoubles(t *testing.T) {
	xml, err := Generate("dblp", 0.05, 4)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmlparse.Parse(xml)
	if err != nil {
		t.Fatal(err)
	}
	snap := core.Build(doc, core.Options{Types: []core.TypeID{core.TypeDouble}}).Snapshot()
	found := 0
	for i := 0; i < doc.NumNodes(); i++ {
		n := xmltree.NodeID(i)
		if doc.Kind(n) == xmltree.Element && doc.Name(n) == "year" && doc.NumChildren(n) > 1 {
			f, ok := snap.TypedFrag(core.TypeDouble, n)
			var v float64
			if ok {
				v, ok = fsm.DoubleValue(f)
			}
			if !ok || v < 1900 || v > 2100 {
				t.Errorf("mixed-content year = %v %v", v, ok)
			}
			found++
		}
	}
	if found == 0 {
		t.Error("no mixed-content years generated")
	}
	if elem := fsm.Double().ElemOf([]byte("2004")); !fsm.Double().Castable(elem) {
		t.Error("sanity: plain year must be castable")
	}
}

func BenchmarkGenerateXMark(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Generate("xmark1", 0.05, 1); err != nil {
			b.Fatal(err)
		}
	}
}
