package core

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/xmltree"
)

// These tests pin the substring index's MVCC contract: the q-gram index
// lives inside the immutable published Snapshot, every commit path
// maintains it copy-on-write, and a pinned version answers Contains
// about itself forever. Under -race any writer mutation of a published
// gram tree is a hard error — exactly the bug the old document-level
// mutable index had.

// substrPostingsEqual reports exact slice equality (same hits, same
// document order) — the index must be byte-identical to the scan.
func substrPostingsEqual(a, b []Posting) bool {
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

// assertSubstrOracle pins the core property: for every pattern, the
// indexed lookup answers exactly what the scan baseline finds.
func assertSubstrOracle(t *testing.T, label string, s *Snapshot, patterns []string) {
	t.Helper()
	for _, p := range patterns {
		if got, want := s.Contains(p), s.ScanContains(p); !substrPostingsEqual(got, want) {
			t.Errorf("%s: Contains(%q) = %d hits, scan oracle %d", label, p, len(got), len(want))
		}
		if got, want := s.StartsWith(p), s.ScanStartsWith(p); !substrPostingsEqual(got, want) {
			t.Errorf("%s: StartsWith(%q) = %d hits, scan oracle %d", label, p, len(got), len(want))
		}
	}
}

// TestSubstrReadersDuringUpdateStorm is the regression test for the
// raceful document-level substring index: 8 readers continuously pin
// snapshots and run Contains while one writer storms text updates,
// subtree deletions, and fragment insertions. Every hit a reader gets
// must verify against its own pinned version (no skew into a later
// generation), and under -race any shared mutable gram state between
// the draft and a published version is fatal.
func TestSubstrReadersDuringUpdateStorm(t *testing.T) {
	const readers = 8
	var b strings.Builder
	b.WriteString(`<r>`)
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, `<v tag="label%d">needle common%d</v>`, i, i)
	}
	b.WriteString(`</r>`)
	ix := Build(mustParseForTest(t, b.String()), DefaultOptions())
	ix.EnableSubstring()

	var stop atomic.Bool
	var reads atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				s := ix.Snapshot()
				doc := s.Doc()
				for _, pattern := range []string{"needle", "label", "gen"} {
					for _, p := range s.Contains(pattern) {
						// Snapshot-skew check: the hit exists in the
						// pinned version and really contains the pattern.
						var v string
						if p.IsAttr {
							v = doc.AttrValue(p.Attr)
						} else {
							v = doc.Value(p.Node)
						}
						if !strings.Contains(v, pattern) {
							errc <- fmt.Errorf("version %d: Contains(%q) returned %+v with value %q",
								s.Version(), pattern, p, v)
							return
						}
					}
				}
				reads.Add(1)
			}
		}()
	}

	// Storm until every reader demonstrably overlapped the writes (as in
	// TestReadersNeverSeeTornBatches: at least minCommits, then keep
	// going until each reader finished a sweep, capped against hangs).
	const (
		minCommits = 150
		maxCommits = 20000
	)
	for g := 0; g < minCommits || (reads.Load() < readers && g < maxCommits); g++ {
		switch g % 4 {
		case 0, 2:
			texts := textNodesOf(ix.Doc())
			batch := make([]TextUpdate, 0, 8)
			for i, n := range texts {
				if i == 8 {
					break
				}
				batch = append(batch, TextUpdate{Node: n, Value: fmt.Sprintf("needle gen%d-%d", g, i)})
			}
			if err := ix.UpdateTexts(batch); err != nil {
				t.Fatal(err)
			}
		case 1:
			frag := mustParseForTest(t, fmt.Sprintf(`<v tag="label-ins%d">needle inserted%d</v>`, g, g))
			if _, err := ix.InsertChildren(ix.Doc().Root(), 0, frag); err != nil {
				t.Fatal(err)
			}
		case 3:
			doc := ix.Doc()
			root := doc.Root()
			if victim := doc.FirstChild(root); victim != xmltree.InvalidNode {
				if err := ix.DeleteSubtree(victim); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if reads.Load() == 0 {
		t.Fatal("readers made no progress during the storm")
	}
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
	assertSubstrOracle(t, "post-storm", ix.Snapshot(), []string{"needle", "label", "gen", "inserted"})
}

// TestSubstrPinnedSnapshotAnswersItsOwnVersion: a snapshot pinned
// before an update storm keeps answering Contains from its own
// generation — stale content is still found, later content is
// invisible — while the live version has moved on.
func TestSubstrPinnedSnapshotAnswersItsOwnVersion(t *testing.T) {
	ix := Build(mustParseForTest(t,
		`<r><a>original payload</a><b note="first annotation">other words</b></r>`), DefaultOptions())
	ix.EnableSubstring()
	pinned := ix.Snapshot()
	wantHits := pinned.Contains("original payload")
	if len(wantHits) != 1 {
		t.Fatalf("pinned Contains = %d hits", len(wantHits))
	}

	for g := 0; g < 25; g++ {
		texts := textNodesOf(ix.Doc())
		batch := make([]TextUpdate, len(texts))
		for i, n := range texts {
			batch[i] = TextUpdate{Node: n, Value: fmt.Sprintf("replacement %d", g)}
		}
		if err := ix.UpdateTexts(batch); err != nil {
			t.Fatal(err)
		}
		if err := ix.UpdateAttr(0, fmt.Sprintf("annotation %d", g)); err != nil {
			t.Fatal(err)
		}
	}

	if got := pinned.Contains("original payload"); !substrPostingsEqual(got, wantHits) {
		t.Fatalf("pinned version lost its own content: %v", got)
	}
	if got := pinned.Contains("replacement"); len(got) != 0 {
		t.Fatalf("pinned version sees future content: %v", got)
	}
	if len(ix.Snapshot().Contains("original payload")) != 0 {
		t.Fatal("live version still finds overwritten content")
	}
	if len(ix.Snapshot().Contains("replacement 24")) == 0 {
		t.Fatal("live version missing current content")
	}
	if err := pinned.Verify(); err != nil {
		t.Fatalf("pinned snapshot fails Verify: %v", err)
	}
}

// TestSubstrEdgePatterns pins the fallback behaviors: the empty pattern
// and patterns shorter than q answer through the scan (and agree with
// it), and multi-byte (non-ASCII) content grams byte-wise without
// splitting or missing matches.
func TestSubstrEdgePatterns(t *testing.T) {
	ix := Build(mustParseForTest(t,
		`<r><a>héllo wörld</a><b>日本語のテキスト</b><c note="これはテスト">naïve café</c><d>plain ascii</d></r>`),
		DefaultOptions())
	ix.EnableSubstring()
	s := ix.Snapshot()

	// Empty and short patterns: scan fallback, identical results.
	assertSubstrOracle(t, "edge", s, []string{"", "a", "ai", "é", "日"})
	if got, want := len(s.Contains("")), len(s.ScanContains("")); got != want || got == 0 {
		t.Fatalf("empty pattern: indexed %d, scan %d (want every value)", got, want)
	}

	// Multi-byte patterns at and above q bytes ("é" is 2 bytes, each
	// kanji 3): the byte-gram index must find them exactly.
	assertSubstrOracle(t, "multibyte", s, []string{
		"héllo", "wörld", "日本語", "語のテキスト", "これはテスト", "naïve", "café", "ïve c",
	})
	if got := s.Contains("日本語"); len(got) != 1 {
		t.Fatalf("Contains(日本語) = %d hits, want 1", len(got))
	}
	if got := s.StartsWith("日本語"); len(got) != 1 {
		t.Fatalf("StartsWith(日本語) = %d hits, want 1", len(got))
	}
	if got := s.StartsWith("本語"); len(got) != 0 {
		t.Fatalf("StartsWith(本語) matched mid-string: %v", got)
	}

	// After an update the multi-byte grams follow the new value.
	texts := textNodesOf(ix.Doc())
	if err := ix.UpdateTexts([]TextUpdate{{Node: texts[1], Value: "中文文本です"}}); err != nil {
		t.Fatal(err)
	}
	s = ix.Snapshot()
	if len(s.Contains("日本語")) != 0 {
		t.Fatal("stale multi-byte grams after update")
	}
	if len(s.Contains("中文文本")) != 1 {
		t.Fatal("new multi-byte grams missing after update")
	}
	assertSubstrOracle(t, "multibyte-updated", s, []string{"中文", "文本です", "héllo"})
}

// substrShapePatterns are probe patterns matched against the shape
// corpus; each shape contains at least one of them.
var substrShapePatterns = []string{"42.5", "bottom", "19", ".5", "note", "data", "0", "zz-absent"}

// TestSubstrOracleAcrossShapeCorpus is the equivalence property over
// the pathological shape corpus: for every shape, indexed results are
// byte-identical to the scan oracle — after the build, after an update
// storm, and after a Save/Load round trip.
func TestSubstrOracleAcrossShapeCorpus(t *testing.T) {
	for _, sc := range shapeCorpus() {
		t.Run(sc.name, func(t *testing.T) {
			ix := Build(mustParseForTest(t, sc.xml), DefaultOptions())
			ix.EnableSubstring()
			assertSubstrOracle(t, "built", ix.Snapshot(), substrShapePatterns)

			// Update storm: rewrite a slice of text nodes, insert and
			// delete a fragment, then re-check the oracle.
			texts := textNodesOf(ix.Doc())
			batch := make([]TextUpdate, 0, 32)
			for i, n := range texts {
				if i == 32 {
					break
				}
				batch = append(batch, TextUpdate{Node: n, Value: fmt.Sprintf("stormed %d.5", i)})
			}
			if len(batch) > 0 {
				if err := ix.UpdateTexts(batch); err != nil {
					t.Fatal(err)
				}
			}
			at, err := ix.InsertChildren(ix.Doc().Root(), 0, mustParseForTest(t, `<ins note="data">bottom 42.5</ins>`))
			if err != nil {
				t.Fatal(err)
			}
			assertSubstrOracle(t, "stormed", ix.Snapshot(), append(substrShapePatterns, "stormed"))
			if err := ix.DeleteSubtree(at); err != nil {
				t.Fatal(err)
			}
			assertSubstrOracle(t, "deleted", ix.Snapshot(), substrShapePatterns)
			if err := ix.Verify(); err != nil {
				t.Fatal(err)
			}

			// Save/Load: the substring section round-trips and the
			// loaded index answers identically.
			path := filepath.Join(t.TempDir(), "shape.xvi")
			if err := ix.Save(path); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if !loaded.Snapshot().HasSubstring() {
				t.Fatal("substring index lost in Save/Load")
			}
			before, after := ix.Snapshot(), loaded.Snapshot()
			for _, p := range substrShapePatterns {
				if !substrPostingsEqual(before.Contains(p), after.Contains(p)) {
					t.Errorf("Contains(%q) differs after Save/Load", p)
				}
			}
			assertSubstrOracle(t, "loaded", after, substrShapePatterns)
			if err := loaded.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSubstrDurableRecoveryAndOpenAt: a durable index set with the
// substring index enabled recovers it through WAL replay (OpenDurable)
// and answers point-in-time Contains at historical versions (OpenAt)
// exactly as the corresponding pinned snapshot did.
func TestSubstrDurableRecoveryAndOpenAt(t *testing.T) {
	dir := t.TempDir()
	snap, wal := filepath.Join(dir, "s.xvi"), filepath.Join(dir, "s.wal")
	ix := Build(mustParseForTest(t, `<r><a>alpha content</a><b>beta content</b></r>`), DefaultOptions())
	ix.EnableSubstring()
	if err := ix.StartDurable(snap, wal, 1); err != nil {
		t.Fatal(err)
	}

	// Three logged generations; remember each version's oracle answers.
	type gen struct {
		version uint64
		hits    map[string][]Posting
	}
	patterns := []string{"alpha", "content", "gen1", "gen2", "inserted"}
	record := func() gen {
		s := ix.Snapshot()
		g := gen{version: s.Version(), hits: map[string][]Posting{}}
		for _, p := range patterns {
			g.hits[p] = s.Contains(p)
		}
		return g
	}
	gens := []gen{record()}
	texts := textNodesOf(ix.Doc())
	if err := ix.UpdateTexts([]TextUpdate{{Node: texts[0], Value: "gen1 content"}}); err != nil {
		t.Fatal(err)
	}
	gens = append(gens, record())
	if _, err := ix.InsertChildren(ix.Doc().Root(), 0, mustParseForTest(t, `<c>inserted gen2</c>`)); err != nil {
		t.Fatal(err)
	}
	gens = append(gens, record())
	if err := ix.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// Crash-recover: the replayed tail must have maintained the index.
	re, err := OpenDurable(snap, wal, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !re.Snapshot().HasSubstring() {
		t.Fatal("substring index lost in recovery")
	}
	last := gens[len(gens)-1]
	for _, p := range patterns {
		if got := re.Snapshot().Contains(p); !substrPostingsEqual(got, last.hits[p]) {
			t.Errorf("recovered Contains(%q) = %d hits, want %d", p, len(got), len(last.hits[p]))
		}
	}
	assertSubstrOracle(t, "recovered", re.Snapshot(), patterns)
	if err := re.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// Point-in-time: every logged version answers as it did live.
	for _, g := range gens {
		at, err := OpenAt(snap, wal, g.version)
		if err != nil {
			t.Fatalf("OpenAt(%d): %v", g.version, err)
		}
		if !at.Snapshot().HasSubstring() {
			t.Fatalf("OpenAt(%d): substring index missing", g.version)
		}
		for _, p := range patterns {
			if got := at.Snapshot().Contains(p); !substrPostingsEqual(got, g.hits[p]) {
				t.Errorf("OpenAt(%d): Contains(%q) = %d hits, want %d", g.version, p, len(got), len(g.hits[p]))
			}
		}
		assertSubstrOracle(t, fmt.Sprintf("openat-%d", g.version), at.Snapshot(), patterns)
	}
}

// TestEnableSubstringIdempotentAndVersionStable: enabling the index
// does not publish a new version (followers replay records at strict
// version boundaries — an unlogged bump would wedge them), and
// re-enabling is a no-op.
func TestEnableSubstringIdempotentAndVersionStable(t *testing.T) {
	ix := Build(mustParseForTest(t, `<r><a>some text</a></r>`), DefaultOptions())
	v0 := ix.Version()
	ix.EnableSubstring()
	if got := ix.Version(); got != v0 {
		t.Fatalf("EnableSubstring moved the version %d -> %d", v0, got)
	}
	if !ix.Snapshot().HasSubstring() {
		t.Fatal("index not enabled")
	}
	hits := ix.Snapshot().Contains("some text")
	ix.EnableSubstring()
	if got := ix.Version(); got != v0 {
		t.Fatalf("re-enable moved the version %d -> %d", v0, got)
	}
	if got := ix.Snapshot().Contains("some text"); !substrPostingsEqual(got, hits) {
		t.Fatal("re-enable changed answers")
	}
}
