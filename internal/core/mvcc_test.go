package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/xmlparse"
	"repro/internal/xmltree"
)

// These tests pin the MVCC contract introduced with copy-on-write index
// versions: readers pin one published Snapshot and observe it bit-stable
// forever, commits are atomic (a reader sees all of a batch or none of
// it), and versions advance monotonically. They are most meaningful
// under -race, where any writer mutation of published state — a torn
// tree node, a spliced column, a shared heap header — is a hard error.

// stormDoc builds a document whose every text node starts at value "A0".
func stormDoc(t testing.TB, texts int) (*Indexes, []xmltree.NodeID) {
	t.Helper()
	var b strings.Builder
	b.WriteString(`<r>`)
	for i := 0; i < texts; i++ {
		b.WriteString(`<v>A0</v>`)
	}
	b.WriteString(`</r>`)
	ix := Build(mustParseForTest(t, b.String()), DefaultOptions())
	return ix, textNodesOf(ix.Doc())
}

// batchValue is the uniform value every text node carries after commit g.
func batchValue(g int) string { return fmt.Sprintf("A%d", g) }

// TestReadersNeverSeeTornBatches is the reader-never-blocks stress test:
// one writer storms whole-document text batches (every commit rewrites
// ALL text nodes to a new uniform value) while 8 readers continuously
// pin snapshots and assert batch atomicity — every snapshot's text
// nodes carry one single value, never a mix of two generations — plus
// monotone version numbers and hash/index agreement on the pinned
// version. Under -race this also proves commits never write into
// published state.
func TestReadersNeverSeeTornBatches(t *testing.T) {
	const (
		readers    = 8
		minCommits = 120
		maxCommits = 20000
		texts      = 60
	)
	ix, nodes := stormDoc(t, texts)

	var stop atomic.Bool
	var reads atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan error, readers)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastVersion := uint64(0)
			for !stop.Load() {
				s := ix.Snapshot()
				if v := s.Version(); v < lastVersion {
					errc <- fmt.Errorf("version went backwards: %d after %d", v, lastVersion)
					return
				} else {
					lastVersion = v
				}
				doc := s.Doc()
				// Batch atomicity: all text values in this version agree.
				first := doc.Value(nodes[0])
				for _, n := range nodes[1:] {
					if v := doc.Value(n); v != first {
						errc <- fmt.Errorf("torn batch in version %d: %q and %q", s.Version(), first, v)
						return
					}
				}
				// The pinned version's index answers about itself: every
				// text node is found under the value it carries.
				if got := len(s.LookupString(first)); got < texts {
					errc <- fmt.Errorf("version %d: LookupString(%q) = %d hits, want >= %d", s.Version(), first, got, texts)
					return
				}
				reads.Add(1)
			}
		}()
	}

	// Storm until every reader demonstrably overlapped the writes: at
	// least minCommits commits, and at least one read per committed
	// version on average (capped so a starved scheduler can't hang the
	// test — the progress assertion below still has to hold).
	batch := make([]TextUpdate, len(nodes))
	commits := 0
	for commits < minCommits || (reads.Load() < readers && commits < maxCommits) {
		commits++
		v := batchValue(commits)
		for i, n := range nodes {
			batch[i] = TextUpdate{Node: n, Value: v}
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
	if reads.Load() == 0 {
		t.Fatal("readers made no progress during the storm")
	}
	if got, want := ix.Version(), uint64(1+commits); got != want {
		t.Fatalf("final version %d, want %d", got, want)
	}
}

// TestPinnedSnapshotIsByteStable: a snapshot pinned before a storm of
// text, attribute, and structural commits serialises byte-identically
// afterwards, still passes Verify, and still answers lookups from its
// own generation — published versions are immutable, not merely
// eventually consistent.
func TestPinnedSnapshotIsByteStable(t *testing.T) {
	xml := `<r a="0"><x>10</x><y>hello</y><z d="2009-03-24">3.5</z></r>`
	ix := Build(mustParseForTest(t, xml), DefaultOptions())

	pinned := ix.Snapshot()
	before, err := xmlparse.SerializeToBytes(pinned.Doc())
	if err != nil {
		t.Fatal(err)
	}
	wantHits := len(pinned.LookupString("hello"))
	if wantHits == 0 {
		t.Fatal("pinned version lost its own text")
	}

	// Storm: value updates, attr updates, one delete, one insert.
	for g := 0; g < 30; g++ {
		texts := textNodesOf(ix.Doc())
		batch := make([]TextUpdate, len(texts))
		for i, n := range texts {
			batch[i] = TextUpdate{Node: n, Value: fmt.Sprintf("g%d", g)}
		}
		if err := ix.UpdateTexts(batch); err != nil {
			t.Fatal(err)
		}
		if err := ix.UpdateAttr(0, fmt.Sprintf("a%d", g)); err != nil {
			t.Fatal(err)
		}
	}
	doc := ix.Doc()
	var victim xmltree.NodeID = xmltree.InvalidNode
	for i := 1; i < doc.NumNodes(); i++ {
		if doc.Kind(xmltree.NodeID(i)) == xmltree.Element && doc.Name(xmltree.NodeID(i)) == "y" {
			victim = xmltree.NodeID(i)
			break
		}
	}
	if victim == xmltree.InvalidNode {
		t.Fatal("no <y>")
	}
	if err := ix.DeleteSubtree(victim); err != nil {
		t.Fatal(err)
	}
	frag := mustParseForTest(t, `<w ts="1999-12-31">42</w>`)
	if _, err := ix.InsertChildren(ix.Doc().Root(), 0, frag); err != nil {
		t.Fatal(err)
	}

	// The pinned version is untouched by all of it.
	after, err := xmlparse.SerializeToBytes(pinned.Doc())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("pinned snapshot changed:\nbefore: %s\nafter:  %s", before, after)
	}
	if got := len(pinned.LookupString("hello")); got != wantHits {
		t.Fatalf("pinned LookupString = %d hits, want %d", got, wantHits)
	}
	if err := pinned.Verify(); err != nil {
		t.Fatalf("pinned snapshot fails Verify after storm: %v", err)
	}
	// And the live version moved on.
	if len(ix.Snapshot().LookupString("hello")) != 0 {
		t.Fatal("live version still finds deleted text")
	}
}

// TestFailedCommitPublishesNothing: a batch that fails validation leaves
// the published version untouched — the version number does not move and
// the draft is discarded whole (commit atomicity).
func TestFailedCommitPublishesNothing(t *testing.T) {
	ix, nodes := stormDoc(t, 4)
	v0 := ix.Version()
	bad := []TextUpdate{
		{Node: nodes[0], Value: "changed"},
		{Node: ix.Doc().Root(), Value: "not a text node"},
	}
	if err := ix.UpdateTexts(bad); err == nil {
		t.Fatal("invalid batch committed")
	}
	if got := ix.Version(); got != v0 {
		t.Fatalf("failed commit moved the version: %d -> %d", v0, got)
	}
	if got := ix.Doc().Value(nodes[0]); got != "A0" {
		t.Fatalf("failed commit leaked a write: %q", got)
	}
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentReadersDuringStructuralChurn is the structural flavour
// of the storm test: the writer alternates inserts and deletes (which
// clone every column and remint stable ids) while readers pin snapshots
// and navigate them; under -race any sharing bug between the draft and
// a published version is fatal.
func TestConcurrentReadersDuringStructuralChurn(t *testing.T) {
	ix, _ := stormDoc(t, 20)

	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				s := ix.Snapshot()
				doc := s.Doc()
				// Full navigation sweep of the pinned version.
				n := doc.NumNodes()
				for i := 0; i < n; i++ {
					nd := xmltree.NodeID(i)
					if doc.Kind(nd) == xmltree.Text {
						_ = doc.Value(nd)
						_ = s.NodeHash(nd)
					}
				}
				if got := doc.NumNodes(); got != n {
					errc <- fmt.Errorf("node count changed mid-read: %d -> %d", n, got)
					return
				}
			}
		}()
	}

	for g := 0; g < 60; g++ {
		frag := mustParseForTest(t, fmt.Sprintf(`<ins><k>%d</k></ins>`, g))
		at, err := ix.InsertChildren(ix.Doc().Root(), 0, frag)
		if err != nil {
			t.Fatal(err)
		}
		if g%2 == 1 {
			if err := ix.DeleteSubtree(at); err != nil {
				t.Fatal(err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
}
