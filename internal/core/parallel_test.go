package core

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/btree"
	"repro/internal/datagen"
	"repro/internal/xmlparse"
	"repro/internal/xmltree"
)

// parallelisms are the worker counts the equivalence properties are
// checked against (2 = minimal split, 3 = odd merge shapes, 8 = more
// shards than this container has cores).
var parallelisms = []int{2, 3, 8}

// dumpTree flattens a B+tree into its ordered entry list.
func dumpTree(t *btree.Tree) []btree.Entry {
	if t == nil {
		return nil
	}
	out := make([]btree.Entry, 0, t.Len())
	t.Scan(func(key uint64, val uint32) bool {
		out = append(out, btree.Entry{Key: key, Val: val})
		return true
	})
	return out
}

// assertIndexesEqual compares every observable structure of two index
// sets built over equal documents, family by family: the per-node and
// per-attribute state (hashes; elements and fragment items) and the full
// tree contents.
func assertIndexesEqual(t *testing.T, wantIx, gotIx *Indexes) {
	t.Helper()
	want, got := wantIx.Snapshot(), gotIx.Snapshot()
	// The substring index is a local enrichment (EnableSubstring is
	// neither logged nor replicated), so a recovered copy may lack it.
	wfams, gfams := want.fams, got.fams
	if want.grams() != nil && got.grams() == nil {
		wfams = wfams[:len(wfams)-1]
	}
	if got.grams() != nil && want.grams() == nil {
		gfams = gfams[:len(gfams)-1]
	}
	if len(wfams) != len(gfams) {
		t.Fatalf("%d families, want %d", len(gfams), len(wfams))
	}
	for i, wf := range wfams {
		gf := gfams[i]
		name := wf.label()
		if gf.label() != name {
			t.Fatalf("family %d is %s, want %s", i, gf.label(), name)
		}
		if !reflect.DeepEqual(familyState(gf), familyState(wf)) {
			t.Fatalf("%s: per-node or per-attribute state differs", name)
		}
		we, ge := dumpTree(wf.postings().tree), dumpTree(gf.postings().tree)
		if len(we) != len(ge) {
			t.Fatalf("%s tree has %d entries, want %d", name, len(ge), len(we))
		}
		for i := range we {
			if we[i] != ge[i] {
				t.Fatalf("%s tree entry %d = %+v, want %+v", name, i, ge[i], we[i])
			}
		}
	}
}

// familyState returns a family's per-posting state as plain slices and
// maps (nil for the stateless gram family).
func familyState(f family) any {
	var out []any
	switch f := f.(type) {
	case *hashFamily:
		for side := range f.col {
			out = append(out, f.col[side].AppendRange(nil, 0, f.col[side].Len()))
		}
	case *typedFamily:
		for side := range f.sides {
			sd := &f.sides[side]
			out = append(out, sd.elems.AppendRange(nil, 0, sd.elems.Len()), maps.Collect(sd.items.All()))
		}
	}
	return out
}

// snapshotBytes saves ix and returns the raw snapshot file.
func snapshotBytes(t *testing.T, ix *Indexes) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap.xvi")
	if err := ix.Save(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	return b
}

// checkParallelEquivalence builds xml serially (the oracle) and with
// every tested worker count, asserting structural equality, identical
// Verify results, and byte-identical snapshots.
func checkParallelEquivalence(t *testing.T, xml []byte, opts Options) {
	t.Helper()
	doc, err := xmlparse.Parse(xml)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	opts.Parallelism = 1
	serial := Build(doc, opts)
	if err := serial.Verify(); err != nil {
		t.Fatalf("serial Verify: %v", err)
	}
	serialSnap := snapshotBytes(t, serial)
	for _, p := range parallelisms {
		popts := opts
		popts.Parallelism = p
		par := Build(doc, popts)
		if err := par.Verify(); err != nil {
			t.Fatalf("Parallelism=%d Verify: %v", p, err)
		}
		assertIndexesEqual(t, serial, par)
		snap := snapshotBytes(t, par)
		if string(snap) != string(serialSnap) {
			t.Fatalf("Parallelism=%d snapshot differs from serial (%d vs %d bytes)", p, len(snap), len(serialSnap))
		}
	}
}

// TestParallelBuildMatchesSerialOnXMark is the headline equivalence
// property on the generated evaluation corpus: for every registered
// type, Parallelism=N and Parallelism=1 produce byte-identical
// snapshots and identical Verify results.
func TestParallelBuildMatchesSerialOnXMark(t *testing.T) {
	// xmark1 runs at a scale whose string index exceeds the parallel
	// sort threshold, so the chunked sort+merge path is exercised too.
	cases := []struct {
		name  string
		scale float64
	}{{"xmark1", 0.25}, {"dblp", 0.02}, {"wiki", 0.02}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			xml, err := datagen.Generate(tc.name, tc.scale, 42)
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			checkParallelEquivalence(t, xml, DefaultOptions())
		})
	}
}

// TestParallelBuildPathologicalShapes covers the shard planner's edge
// cases: a single giant subtree (the whole document is one spine
// chain), an all-attribute document (empty node shards, loaded attr
// chunks), an empty document, and a mixed-content document whose
// COMBINED values sit on the spine.
func TestParallelBuildPathologicalShapes(t *testing.T) {
	for _, tc := range shapeCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			checkParallelEquivalence(t, []byte(tc.xml), DefaultOptions())
			// Also with a subset of indexes, so absent structures stay
			// absent on the parallel path too.
			checkParallelEquivalence(t, []byte(tc.xml), Options{Types: []TypeID{TypeDouble}})
		})
	}
}

// TestParallelBuildDeepChain pins that the shard planner survives
// pathological nesting depth: a chain this deep puts (nearly) every
// node on the spine, which would overflow the goroutine stack with a
// recursive planner. The full Verify/snapshot equivalence check is
// skipped here — Verify is quadratic in depth — so this stays a cheap
// structural-equality test.
func TestParallelBuildDeepChain(t *testing.T) {
	const depth = 200_000
	var sb strings.Builder
	sb.Grow(depth * 9)
	sb.WriteString("<r>")
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&sb, "<d%d>", i%7)
	}
	sb.WriteString("42.5")
	for i := depth - 1; i >= 0; i-- {
		fmt.Fprintf(&sb, "</d%d>", i%7)
	}
	sb.WriteString("</r>")
	doc, err := xmlparse.Parse([]byte(sb.String()))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	opts := DefaultOptions()
	opts.Parallelism = 1
	serial := Build(doc, opts)
	opts.Parallelism = 4
	assertIndexesEqual(t, serial, Build(doc, opts))
}

// setUpCorpus is the input set of the set-up equivalence tests: the
// generated corpora of TestParallelBuildMatchesSerialOnXMark and the
// shapes of TestParallelBuildPathologicalShapes.
func setUpCorpus(t *testing.T) []shapeCase {
	t.Helper()
	var out []shapeCase
	for _, gen := range []struct {
		name  string
		scale float64
	}{{"xmark1", 0.25}, {"dblp", 0.02}, {"wiki", 0.02}} {
		xml, err := datagen.Generate(gen.name, gen.scale, 42)
		if err != nil {
			t.Fatalf("generate %s: %v", gen.name, err)
		}
		out = append(out, shapeCase{gen.name, string(xml)})
	}
	return append(out, shapeCorpus()...)
}

// TestParallelEnableSubstringMatchesSerial: the gram tree and its
// statistics come out the same whether EnableSubstring generates and
// sorts the keys on one worker or on four.
func TestParallelEnableSubstringMatchesSerial(t *testing.T) {
	for _, tc := range setUpCorpus(t) {
		t.Run(tc.name, func(t *testing.T) {
			doc := mustParseForTest(t, tc.xml)
			var grams [2]*gramFamily
			for i, p := range []int{1, 4} {
				opts := DefaultOptions()
				opts.Parallelism = p
				ix := Build(doc, opts)
				ix.EnableSubstring()
				grams[i] = ix.Snapshot().grams()
			}
			if !slices.Equal(dumpTree(grams[0].tree), dumpTree(grams[1].tree)) {
				t.Fatal("gram tree differs between Parallelism 1 and 4")
			}
			if !reflect.DeepEqual(grams[0].stats, grams[1].stats) {
				t.Fatalf("gram statistics differ: %+v vs %+v", grams[0].stats, grams[1].stats)
			}
		})
	}
}

// TestParallelLoadMatchesSerial: Load decodes the tree sections beside
// the fold on GOMAXPROCS workers. Under 1 and 4 it must bring up the
// same state, trees and statistics, and re-save the same bytes.
func TestParallelLoadMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range setUpCorpus(t) {
		t.Run(tc.name, func(t *testing.T) {
			ix := Build(mustParseForTest(t, tc.xml), DefaultOptions())
			ix.EnableSubstring()
			want := snapshotBytes(t, ix)
			path := filepath.Join(t.TempDir(), "snap.xvi")
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			var loaded [2]*Indexes
			for i, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				var err error
				if loaded[i], err = Load(path); err != nil {
					t.Fatalf("GOMAXPROCS=%d: load: %v", procs, err)
				}
				if got := snapshotBytes(t, loaded[i]); string(got) != string(want) {
					t.Fatalf("GOMAXPROCS=%d: re-saved snapshot differs", procs)
				}
			}
			assertIndexesEqual(t, loaded[0], loaded[1])
			for i, f := range loaded[0].Snapshot().fams {
				if got := loaded[1].Snapshot().fams[i].postings().stats; !reflect.DeepEqual(f.postings().stats, got) {
					t.Fatalf("%s statistics differ between GOMAXPROCS 1 and 4", f.label())
				}
				if !reflect.DeepEqual(f.postings().stats, ix.Snapshot().fams[i].postings().stats) {
					t.Fatalf("%s statistics after Load differ from Build's", f.label())
				}
			}
		})
	}
}

// TestBulkLoadAllocFollowsEntries is a count guard on the gram
// family's bulk-load input: entries fills fixed-size chunks and joins
// them once, so what it allocates stays a small multiple of the slice
// it returns — a slice regrown by append would not.
func TestBulkLoadAllocFollowsEntries(t *testing.T) {
	if testing.Short() {
		t.Skip("builds xmark1 at scale 2")
	}
	for _, scale := range []float64{0.25, 2} {
		xml, err := datagen.Generate("xmark1", scale, 42)
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		ix := Build(mustParseForTest(t, string(xml)), DefaultOptions())
		ix.EnableSubstring()
		s := ix.Snapshot()
		for _, workers := range []int{1, 2} {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			out := s.entries(s.grams(), workers)
			runtime.ReadMemStats(&m1)
			size := uint64(len(out)) * uint64(unsafe.Sizeof(btree.Entry{}))
			ratio := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(size)
			t.Logf("scale %g, %d workers: %d entries, allocated %.2fx their bytes", scale, workers, len(out), ratio)
			if ratio > 5 {
				t.Errorf("scale %g, %d workers: entries allocated %.2fx the bytes it returned, want <= 5x", scale, workers, ratio)
			}
		}
	}
}

// TestPlanShardsPartition pins the planner invariant everything else
// rests on: the spine and the shards' subtrees cover every node exactly
// once, and every shard subtree's parent lies on the spine side.
func TestPlanShardsPartition(t *testing.T) {
	xml, err := datagen.Generate("xmark1", 0.02, 7)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	doc, err := xmlparse.Parse(xml)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, workers := range parallelisms {
		spine, shards := planShards(doc, workers)
		seen := make([]int, doc.NumNodes())
		for _, n := range spine {
			seen[n]++
		}
		for _, shard := range shards {
			for _, root := range shard {
				end := root + xmltree.NodeID(doc.Size(root))
				for i := root; i <= end; i++ {
					seen[i]++
				}
			}
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: node %d covered %d times", workers, i, c)
			}
		}
	}
}

// TestConcurrentLookupsDuringUpdates exercises the documented
// concurrency contract: the locked read entry points may interleave
// freely with text updates. Run under -race this is the regression test
// for the Indexes synchronization.
func TestConcurrentLookupsDuringUpdates(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<root>")
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&sb, "<item><price>%d.50</price><name>item %d</name></item>", i, i)
	}
	sb.WriteString("</root>")
	doc, err := xmlparse.Parse([]byte(sb.String()))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ix := Build(doc, DefaultOptions())
	var texts []xmltree.NodeID
	for i := 0; i < doc.NumNodes(); i++ {
		if doc.Kind(xmltree.NodeID(i)) == xmltree.Text {
			texts = append(texts, xmltree.NodeID(i))
		}
	}

	const readers = 4
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				switch i % 4 {
				case 0:
					ix.Snapshot().LookupString(fmt.Sprintf("item %d", i%400))
				case 1:
					rangeDouble(ix.Snapshot(), 0, 1000, true, true)
				case 2:
					lookupDoubleEq(ix.Snapshot(), float64(i%400)+0.5)
				case 3:
					ix.Snapshot().Stats()
				}
			}
		}(r)
	}
	for i := 0; i < 200; i++ {
		n := texts[(i*37)%len(texts)]
		if err := ix.UpdateText(n, fmt.Sprintf("%d.25", i)); err != nil {
			t.Errorf("update: %v", err)
			break
		}
	}
	close(done)
	wg.Wait()
	if err := ix.Verify(); err != nil {
		t.Fatalf("post-interleaving Verify: %v", err)
	}
}
