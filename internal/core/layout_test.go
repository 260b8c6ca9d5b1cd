package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/btree"
	"repro/internal/storage"
	"repro/internal/xmltree"
)

// Tests for the compressed hot-data layout: the tree section codec, the packed posting lists, commit-time heap compaction, the
// MemStats accounting, and the property that the packed layout answers
// everything byte-identically to the scan oracles.

func buildDupHeavyTree(n int) *btree.Tree {
	entries := make([]btree.Entry, 0, n)
	for i := 0; i < n; i++ {
		entries = append(entries, btree.Entry{Key: uint64(i % 97), Val: uint32(i)})
	}
	btree.SortEntries(entries)
	return btree.NewFromSorted(entries)
}

func TestTreeSectionRoundTripV2(t *testing.T) {
	for _, n := range []int{0, 1, 3, 64, 65, 5000} {
		want := buildDupHeavyTree(n)
		e := storage.NewBufEncoder(nil)
		writeTree(e, want)
		buf, _ := e.Bytes()
		var pt postingTree
		if err := readTree(storage.NewDecoder(bytes.NewReader(buf)), &pt); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !reflect.DeepEqual(pt.stats, treeKeyStats(want)) {
			t.Fatalf("n=%d: decoded statistics differ from a scan of the tree", n)
		}
		w, g := dumpTree(want), dumpTree(pt.tree)
		if len(w) != len(g) {
			t.Fatalf("n=%d: %d entries, want %d", n, len(g), len(w))
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("n=%d: entry %d = %+v, want %+v", n, i, g[i], w[i])
			}
		}
	}
}

func TestPackedPostingsIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		makeList := func() ([]uint32, packedPostings) {
			n := rng.Intn(40)
			set := map[uint32]bool{}
			for i := 0; i < n; i++ {
				set[uint32(rng.Intn(120))] = true
			}
			var vals []uint32
			for v := range set {
				vals = append(vals, v)
			}
			sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
			var p packedPostings
			for _, v := range vals {
				p.push(v)
			}
			if p.n != len(vals) {
				t.Fatalf("push count %d, want %d", p.n, len(vals))
			}
			if got := p.decode(nil); len(got) != len(vals) {
				t.Fatalf("decode lost entries")
			}
			return vals, p
		}
		av, ap := makeList()
		bv, bp := makeList()
		inB := map[uint32]bool{}
		for _, v := range bv {
			inB[v] = true
		}
		var want []uint32
		for _, v := range av {
			if inB[v] {
				want = append(want, v)
			}
		}
		got := intersectPostings(ap, bp).decode(nil)
		if len(got) != len(want) {
			t.Fatalf("round %d: intersection has %d postings, want %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: posting %d = %d, want %d", round, i, got[i], want[i])
			}
		}
	}
}

// TestAutoCompactBoundsHeap: an update storm that overwrites long
// (non-internable) values must not grow the heap without bound — the
// commit-time compaction keeps it within a small multiple of the live
// bytes — while a snapshot pinned mid-storm keeps serving its own
// version's values.
func TestAutoCompactBoundsHeap(t *testing.T) {
	const nodes = 500
	longVal := func(n, round int) string {
		return fmt.Sprintf("node %4d round %4d %s", n, round, strings.Repeat("x", 140))
	}
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < nodes; i++ {
		b.WriteString("<v>" + longVal(i, 0) + "</v>")
	}
	b.WriteString("</r>")
	ix := Build(mustParseForTest(t, b.String()), DefaultOptions())
	texts := textNodesOf(ix.Doc())

	var pinned *Snapshot
	var pinnedWant string
	written := 0
	const rounds = 20
	batch := make([]TextUpdate, len(texts))
	for round := 1; round <= rounds; round++ {
		for i, n := range texts {
			batch[i] = TextUpdate{Node: n, Value: longVal(i, round)}
			written += len(batch[i].Value)
		}
		if err := ix.UpdateTexts(batch); err != nil {
			t.Fatal(err)
		}
		if round == rounds/2 {
			pinned = ix.Snapshot()
			pinnedWant = pinned.Doc().Value(texts[0])
		}
	}
	live := ix.Doc().LiveHeapBytes()
	heap := ix.Doc().HeapBytes()
	if heap > 2*live {
		t.Fatalf("heap %d bytes with %d live: auto-compaction did not run", heap, live)
	}
	if heap >= written {
		t.Fatalf("heap %d holds every byte ever written (%d): no compaction", heap, written)
	}
	// The version pinned mid-storm is untouched by later compactions.
	if got := pinned.Doc().Value(texts[0]); got != pinnedWant {
		t.Fatalf("pinned snapshot changed under compaction: %q, want %q", got, pinnedWant)
	}
	// Two hits: the text node and its single-child <v> wrapper element.
	if got := pinned.LookupString(pinnedWant); len(got) != 2 {
		t.Fatalf("pinned snapshot lookup found %d hits, want 2", len(got))
	}
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestMemStatsPackedSmaller(t *testing.T) {
	// Repetitive values + duplicate-heavy keys: the shape the layout
	// work targets. XMark-like corpora behave the same (see bench).
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&b, `<item cat="c%d"><price>%d.50</price><note>common note %d</note></item>`, i%7, i%100, i%13)
	}
	b.WriteString("</r>")
	ix := Build(mustParseForTest(t, b.String()), DefaultOptions())
	ix.EnableSubstring()
	ms := ix.Snapshot().MemStats()

	if ms.Nodes != ix.Doc().NumNodes()+ix.Doc().NumAttrs() {
		t.Fatalf("Nodes = %d, want %d", ms.Nodes, ix.Doc().NumNodes()+ix.Doc().NumAttrs())
	}
	wantTotal := ms.DocBytes + ms.StringTreeBytes + ms.TypedTreeBytes + ms.SubstrTreeBytes + ms.SideBytes
	if ms.TotalBytes != wantTotal {
		t.Fatalf("TotalBytes %d, components sum to %d", ms.TotalBytes, wantTotal)
	}
	if ms.SubstrTreeBytes == 0 || ms.StringTreeBytes == 0 || ms.TypedTreeBytes == 0 {
		t.Fatalf("missing tree component: %+v", ms)
	}
	if ms.BytesPerNode <= 0 {
		t.Fatalf("BytesPerNode = %v", ms.BytesPerNode)
	}
	// The headline claim: the packed trees, nodes included, take at most
	// 70% of the 16 B per entry (a btree.Entry) that unpacked leaves hold
	// before any node overhead.
	entries := 0
	for _, f := range ix.Snapshot().fams {
		entries += f.postings().tree.Len()
	}
	packedTrees := ms.StringTreeBytes + ms.TypedTreeBytes + ms.SubstrTreeBytes
	t.Logf("packed trees %d bytes for %d entries: %.3f of 16 B per entry", packedTrees, entries, float64(packedTrees)/float64(16*entries))
	if float64(packedTrees) > 0.7*float64(16*entries) {
		t.Fatalf("packed trees %d bytes for %d entries: more than 70%% of 16 B per entry", packedTrees, entries)
	}
}

// sortedPostings puts index answers and scan-oracle answers into one
// canonical order (nodes in document order, then attributes).
func sortedPostings(ps []Posting) []Posting {
	out := append([]Posting(nil), ps...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].IsAttr != out[j].IsAttr {
			return !out[i].IsAttr
		}
		if out[i].IsAttr {
			return out[i].Attr < out[j].Attr
		}
		return out[i].Node < out[j].Node
	})
	return out
}

func assertSamePostings(t *testing.T, what string, got, want []Posting) {
	t.Helper()
	g, w := sortedPostings(got), sortedPostings(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d postings, want %d", what, len(g), len(w))
	}
	for i := range w {
		if g[i] != w[i] {
			t.Fatalf("%s: posting %d = %+v, want %+v", what, i, g[i], w[i])
		}
	}
}

// assertOracleEquivalent drives every index family against its scan
// oracle on one snapshot: string equality, double ranges, substring and
// prefix matching.
func assertOracleEquivalent(t *testing.T, s *Snapshot, rng *rand.Rand) {
	t.Helper()
	doc := s.Doc()
	// Sample existing values (plus misses) for the string index.
	var samples []string
	for i := 0; i < doc.NumNodes() && len(samples) < 8; i += 1 + rng.Intn(50) {
		if doc.Kind(xmltree.NodeID(i)) == xmltree.Text {
			samples = append(samples, doc.Value(xmltree.NodeID(i)))
		}
	}
	samples = append(samples, "no such value anywhere", "42.5")
	for _, v := range samples {
		assertSamePostings(t, fmt.Sprintf("LookupString(%q)", v),
			s.LookupString(v), s.ScanStringEquals(v))
	}
	for _, r := range [][2]float64{{0, 100}, {42, 43}, {-10, 1e9}} {
		assertSamePostings(t, fmt.Sprintf("RangeDouble(%v)", r),
			rangeDouble(s, r[0], r[1], true, true), scanDoubleRange(s, r[0], r[1]))
	}
	if s.HasSubstring() {
		for _, pat := range []string{"42.", "word", "ttom", "zzz-none", "common"} {
			assertSamePostings(t, fmt.Sprintf("Contains(%q)", pat),
				s.Contains(pat), s.ScanContains(pat))
			assertSamePostings(t, fmt.Sprintf("StartsWith(%q)", pat),
				s.StartsWith(pat), s.ScanStartsWith(pat))
		}
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestLayoutEquivalenceProperty is the packed-layout equivalence
// property: across the pathological shape corpus, under an update storm
// (text, attribute, delete, insert), and across Save/Load, the packed
// B+tree leaves and interned heap answer every lookup byte-identically
// to the scan oracles.
func TestLayoutEquivalenceProperty(t *testing.T) {
	for _, sc := range shapeCorpus() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(sc.name))))
			ix := Build(mustParseForTest(t, sc.xml), DefaultOptions())
			ix.EnableSubstring()
			assertOracleEquivalent(t, ix.Snapshot(), rng)

			for phase := 0; phase < 4; phase++ {
				texts := textNodesOf(ix.Doc())
				if len(texts) > 0 {
					var batch []TextUpdate
					for k := 0; k < 10 && k < len(texts); k++ {
						batch = append(batch, TextUpdate{
							Node:  texts[rng.Intn(len(texts))],
							Value: randomDurableValue(rng),
						})
					}
					// Duplicate nodes in one batch are legal; last wins.
					if err := ix.UpdateTexts(batch); err != nil {
						t.Fatal(err)
					}
				}
				if na := ix.Doc().NumAttrs(); na > 0 {
					if err := ix.UpdateAttr(xmltree.AttrID(rng.Intn(na)), randomDurableValue(rng)); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := ix.InsertChildren(0, 0, mustParseForTest(t,
					fmt.Sprintf(`<ins a="%d"><x>%d.25</x>inserted words</ins>`, phase, phase))); err != nil {
					t.Fatal(err)
				}
				if doc := ix.Doc(); doc.NumNodes() > 3 {
					// Delete some node other than the root element.
					n := xmltree.NodeID(2 + rng.Intn(doc.NumNodes()-2))
					if err := ix.DeleteSubtree(n); err != nil {
						t.Fatal(err)
					}
				}
				assertOracleEquivalent(t, ix.Snapshot(), rng)
			}

			// The layout survives serialisation: Save → Load answers
			// identically and carries identical index structures.
			path := filepath.Join(t.TempDir(), "layout.xvi")
			if err := ix.Snapshot().Save(path); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			assertIndexesEqual(t, ix, loaded)
			assertOracleEquivalent(t, loaded.Snapshot(), rng)
		})
	}
}

// TestDurableLayoutEquivalence runs the storm under durability: WAL
// replay (OpenDurable) and point-in-time recovery (OpenAt) rebuild the
// packed layout and answer identically to the scan oracles.
func TestDurableLayoutEquivalence(t *testing.T) {
	xml := shapeCorpus()[4].xml // mixed-content spine
	ix, snap, wal := durablePair(t, xml, 1)
	ix.EnableSubstring()
	rng := rand.New(rand.NewSource(99))
	texts := textNodesOf(ix.Doc())
	for round := 0; round < 30; round++ {
		if err := ix.UpdateText(texts[rng.Intn(len(texts))], randomDurableValue(rng)); err != nil {
			t.Fatal(err)
		}
	}
	midVersion := ix.Version()
	for round := 0; round < 30; round++ {
		if err := ix.UpdateText(texts[rng.Intn(len(texts))], randomDurableValue(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenDurable(snap, wal, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertSameState(t, ix, reopened)
	assertOracleEquivalent(t, reopened.Snapshot(), rng)
	if err := reopened.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	at, err := OpenAt(snap, wal, midVersion)
	if err != nil {
		t.Fatal(err)
	}
	if got := at.Version(); got != midVersion {
		t.Fatalf("OpenAt landed on version %d, want %d", got, midVersion)
	}
	assertOracleEquivalent(t, at.Snapshot(), rng)
}

// TestPinnedSnapshotsImmutableUnderCompactionStorm pins packed
// snapshots while a writer storms commits sized to trigger heap
// compaction, asserting (under -race) that published packed state is
// never written: every pinned version keeps answering with its own
// values and its MemStats stay constant.
func TestPinnedSnapshotsImmutableUnderCompactionStorm(t *testing.T) {
	const nodes = 300
	longVal := func(n, round int) string {
		return fmt.Sprintf("n%d r%d %s", n, round, strings.Repeat("y", 150))
	}
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < nodes; i++ {
		b.WriteString("<v>" + longVal(i, 0) + "</v>")
	}
	b.WriteString("</r>")
	ix := Build(mustParseForTest(t, b.String()), DefaultOptions())
	ix.EnableSubstring()
	texts := textNodesOf(ix.Doc())

	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				s := ix.Snapshot()
				doc := s.Doc()
				want := doc.Value(texts[0])
				ms := s.MemStats()
				// Re-read after a beat: the pinned version must not move.
				for k := 0; k < 100; k++ {
					if got := doc.Value(texts[k%len(texts)]); !strings.HasPrefix(got, fmt.Sprintf("n%d ", k%len(texts))) {
						errc <- fmt.Errorf("pinned value for node %d corrupted: %.40q", k%len(texts), got)
						return
					}
				}
				if got := doc.Value(texts[0]); got != want {
					errc <- fmt.Errorf("pinned value changed: %.40q to %.40q", want, got)
					return
				}
				if ms2 := s.MemStats(); ms2 != ms {
					errc <- fmt.Errorf("pinned MemStats changed: %+v to %+v", ms, ms2)
					return
				}
				// Text node plus its single-child <v> wrapper element.
				if n := len(s.LookupString(want)); n != 2 {
					errc <- fmt.Errorf("pinned lookup found %d hits, want 2", n)
					return
				}
			}
		}()
	}
	batch := make([]TextUpdate, len(texts))
	for round := 1; round <= 40; round++ {
		for i, n := range texts {
			batch[i] = TextUpdate{Node: n, Value: longVal(i, round)}
		}
		if err := ix.UpdateTexts(batch); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if heap, live := ix.Doc().HeapBytes(), ix.Doc().LiveHeapBytes(); heap > 2*live {
		t.Fatalf("heap %d with %d live: compaction never ran during the storm", heap, live)
	}
}
