package txn

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/xmltree"
)

func TestManagerIndexesAccessor(t *testing.T) {
	ix := wideDoc(t, 2)
	m := NewManager(ix)
	if m.Indexes() != ix {
		t.Error("Indexes accessor broken")
	}
	lm := NewLockingManager(ix)
	if lm.Indexes() != ix {
		t.Error("LockingManager.Indexes accessor broken")
	}
}

func TestLockingManagerStatsAndAbort(t *testing.T) {
	ix := wideDoc(t, 3)
	m := NewLockingManager(ix)
	texts := textNodes(ix.Doc())

	tx := m.Begin()
	if err := tx.SetText(texts[0], "staged"); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if c, a := m.Stats(); c != 0 || a != 1 {
		t.Errorf("stats after abort = %d/%d", c, a)
	}
	if len(ix.Snapshot().LookupString("staged")) != 0 {
		t.Error("aborted locking txn leaked a write")
	}
	// Chain locks must be released by the abort.
	tx2 := m.Begin()
	if err := tx2.SetText(texts[0], "committed"); err != nil {
		t.Fatalf("locks not released: %v", err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if c, _ := m.Stats(); c != 1 {
		t.Errorf("commits = %d", c)
	}
	// Operations on a closed txn fail cleanly.
	if err := tx2.SetText(texts[0], "late"); err != ErrClosed {
		t.Errorf("SetText after commit = %v", err)
	}
	if err := tx2.Commit(); err != ErrClosed {
		t.Errorf("Commit after commit = %v", err)
	}
	tx2.Abort() // no-op, must not panic or double-count
	if _, a := m.Stats(); a != 1 {
		t.Errorf("aborts = %d after no-op Abort", a)
	}
}

func TestCommutativeDoubleCommitAndAbortIdempotent(t *testing.T) {
	ix := wideDoc(t, 2)
	m := NewManager(ix)
	tx := m.Begin()
	if err := tx.Commit(); err != nil { // empty commit is legal
		t.Fatal(err)
	}
	if err := tx.Commit(); err != ErrClosed {
		t.Errorf("second commit = %v", err)
	}
	tx.Abort() // after commit: no-op
	if c, a := m.Stats(); c != 1 || a != 0 {
		t.Errorf("stats = %d/%d", c, a)
	}
}

func TestGetTextErrorsOnClosed(t *testing.T) {
	ix := wideDoc(t, 1)
	m := NewManager(ix)
	tx := m.Begin()
	tx.Abort()
	if _, err := tx.GetText(textNodes(ix.Doc())[0]); err != ErrClosed {
		t.Errorf("GetText after abort = %v", err)
	}
}

func TestLockingSetTextRejectsElements(t *testing.T) {
	ix := wideDoc(t, 1)
	m := NewLockingManager(ix)
	tx := m.Begin()
	defer tx.Abort()
	if err := tx.SetText(xmltree.NodeID(0), "x"); err == nil || err == ErrConflict {
		t.Errorf("SetText on document = %v", err)
	}
}

// TestLockingConcurrentSerializes: under ancestor locking, concurrent
// workers still make progress (through retries) and end consistent.
func TestLockingConcurrentSerializes(t *testing.T) {
	ix := wideDoc(t, 40)
	m := NewLockingManager(ix)
	texts := textNodes(ix.Doc())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				for {
					tx := m.Begin()
					if err := tx.SetText(texts[w*10+i], fmt.Sprintf("L%d.%d", w, i)); err != nil {
						tx.Abort()
						continue
					}
					if err := tx.Commit(); err != nil {
						t.Error(err)
						return
					}
					break
				}
			}
		}(w)
	}
	wg.Wait()
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
	if c, _ := m.Stats(); c != 40 {
		t.Errorf("commits = %d, want 40", c)
	}
}

// TestTxnWriteSameNodeTwice: rewriting a node inside one txn keeps a
// single lock and the last value wins.
func TestTxnWriteSameNodeTwice(t *testing.T) {
	ix := wideDoc(t, 1)
	m := NewManager(ix)
	tx := m.Begin()
	n := textNodes(ix.Doc())[0]
	if err := tx.SetText(n, "first"); err != nil {
		t.Fatal(err)
	}
	if err := tx.SetText(n, "second"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// The text node and its whole ancestor chain carry the new value.
	if len(ix.Snapshot().LookupString("second")) == 0 || len(ix.Snapshot().LookupString("first")) != 0 {
		t.Error("last write did not win")
	}
}
