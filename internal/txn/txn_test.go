package txn

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/vhash"
	"repro/internal/xmlparse"
	"repro/internal/xmltree"
)

// wideDoc builds <root> with n <leaf>value</leaf> children — maximal
// ancestor sharing (every update touches the root's hash).
func wideDoc(t testing.TB, n int) *core.Indexes {
	t.Helper()
	b := xmltree.NewBuilder()
	b.StartElement("root")
	for i := 0; i < n; i++ {
		b.StartElement("leaf")
		b.Text(fmt.Sprintf("v%d", i))
		b.EndElement()
	}
	b.EndElement()
	doc, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return core.Build(doc, core.DefaultOptions())
}

func textNodes(d *xmltree.Doc) []xmltree.NodeID {
	var out []xmltree.NodeID
	for i := 0; i < d.NumNodes(); i++ {
		if d.Kind(xmltree.NodeID(i)) == xmltree.Text {
			out = append(out, xmltree.NodeID(i))
		}
	}
	return out
}

func TestCommitBasic(t *testing.T) {
	ix := wideDoc(t, 4)
	m := NewManager(ix)
	texts := textNodes(ix.Doc())
	tx := m.Begin()
	if err := tx.SetText(texts[0], "updated"); err != nil {
		t.Fatal(err)
	}
	if v, _ := tx.GetText(texts[0]); v != "updated" {
		t.Error("read-your-writes failed")
	}
	if v, _ := tx.GetText(texts[1]); v != "v1" {
		t.Error("read of unwritten node wrong")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
	if len(ix.Snapshot().LookupString("updated")) == 0 {
		t.Error("committed value not indexed")
	}
	if c, a := m.Stats(); c != 1 || a != 0 {
		t.Errorf("stats = %d/%d", c, a)
	}
}

func TestAbortDiscards(t *testing.T) {
	ix := wideDoc(t, 2)
	m := NewManager(ix)
	texts := textNodes(ix.Doc())
	tx := m.Begin()
	if err := tx.SetText(texts[0], "ghost"); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
	if len(ix.Snapshot().LookupString("ghost")) != 0 {
		t.Error("aborted value visible")
	}
	if err := tx.SetText(texts[0], "late"); err != ErrClosed {
		t.Errorf("write after abort = %v", err)
	}
	// The lock must be free for another txn.
	tx2 := m.Begin()
	if err := tx2.SetText(texts[0], "fresh"); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteWriteConflict(t *testing.T) {
	ix := wideDoc(t, 2)
	m := NewManager(ix)
	texts := textNodes(ix.Doc())
	t1 := m.Begin()
	t2 := m.Begin()
	if err := t1.SetText(texts[0], "a"); err != nil {
		t.Fatal(err)
	}
	if err := t2.SetText(texts[0], "b"); err != ErrConflict {
		t.Errorf("conflicting write = %v, want ErrConflict", err)
	}
	// Disjoint writes do NOT conflict — the paper's key property: t1 and
	// t2 share every ancestor yet both proceed.
	if err := t2.SetText(texts[1], "b"); err != nil {
		t.Errorf("disjoint write should succeed: %v", err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestAncestorLockingConflictsAtRoot(t *testing.T) {
	ix := wideDoc(t, 2)
	m := NewLockingManager(ix)
	texts := textNodes(ix.Doc())
	t1 := m.Begin()
	t2 := m.Begin()
	if err := t1.SetText(texts[0], "a"); err != nil {
		t.Fatal(err)
	}
	// Disjoint leaves, but the shared root lock conflicts — the
	// bottleneck the paper's design removes.
	if err := t2.SetText(texts[1], "b"); err != ErrConflict {
		t.Errorf("ancestor-locking disjoint write = %v, want ErrConflict", err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.SetText(texts[1], "b"); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentCommutativeCommits is the Section 5.1 scenario: many
// goroutines update disjoint leaves under shared ancestors concurrently;
// after all commits the index equals a from-scratch rebuild.
func TestConcurrentCommutativeCommits(t *testing.T) {
	const workers = 8
	const perWorker = 25
	ix := wideDoc(t, workers*perWorker)
	m := NewManager(ix)
	texts := textNodes(ix.Doc())
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				tx := m.Begin()
				n := texts[w*perWorker+i]
				if err := tx.SetText(n, fmt.Sprintf("w%d-%d-%d", w, i, rng.Intn(100))); err != nil {
					errs <- err
					tx.Abort()
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := ix.Verify(); err != nil {
		t.Fatalf("after concurrent commits: %v", err)
	}
	if c, _ := m.Stats(); c != workers*perWorker {
		t.Errorf("commits = %d, want %d", c, workers*perWorker)
	}
	// Root hash equals a hash of the actual final string value.
	want := vhash.HashString(ix.Doc().StringValue(0))
	if got := ix.Snapshot().NodeHash(0); got != want {
		t.Errorf("root hash %#x, want %#x", got, want)
	}
}

// TestConcurrentContendedWorkload mixes conflicts and retries.
func TestConcurrentContendedWorkload(t *testing.T) {
	ix := wideDoc(t, 10)
	m := NewManager(ix)
	texts := textNodes(ix.Doc())
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w * 77)))
			for i := 0; i < 50; i++ {
				tx := m.Begin()
				ok := true
				for j := 0; j < 1+rng.Intn(3); j++ {
					n := texts[rng.Intn(len(texts))]
					if err := tx.SetText(n, fmt.Sprintf("%d.%d", w, i)); err != nil {
						tx.Abort() // conflict: retry next iteration
						ok = false
						break
					}
				}
				if ok {
					if err := tx.Commit(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
	c, a := m.Stats()
	t.Logf("contended workload: %d commits, %d aborts", c, a)
	if c == 0 {
		t.Error("no transaction committed")
	}
}

func TestSetTextRejectsElements(t *testing.T) {
	ix := wideDoc(t, 1)
	m := NewManager(ix)
	tx := m.Begin()
	defer tx.Abort()
	if err := tx.SetText(0, "x"); err == nil || err == ErrConflict {
		t.Errorf("SetText on document = %v", err)
	}
}

func TestDeepDocumentCommutativity(t *testing.T) {
	// Deep chains: every update's refold path reaches the root through
	// many levels.
	xml := "<a><b><c><d><e>one</e><f>two</f></d></c></b></a>"
	doc, err := xmlparse.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	ix := core.Build(doc, core.DefaultOptions())
	m := NewManager(ix)
	texts := textNodes(doc)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				tx := m.Begin()
				if err := tx.SetText(texts[w], fmt.Sprintf("w%d-%d", w, i)); err != nil {
					tx.Abort()
					continue
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
}
