package core

import (
	"cmp"
	"fmt"

	"repro/internal/xmltree"
)

// VerifyLeaves checks the stored per-leaf state against ground truth:
// every value-carrying leaf's and attribute's state must be the one its
// character data produces, in every family (H of the data, a fresh FSM
// run). Interior state is derived from leaves by the fold, so this is the
// recovery contract's integrity check — O(total character data), cheap
// enough to run at every OpenDurable, unlike the full Verify. The
// posting ranges are checked on up to Options.Parallelism workers; the
// error reported is the one a serial walk would meet first.
func (ix *Snapshot) VerifyLeaves() error {
	workers := ix.opts.workers()
	errs := make([]error, workers)
	parallelFor(workers, workers, func(r int) {
		for p := range ix.postingRange(r, workers) {
			if p.IsAttr || isLeafKind(ix.doc.Kind(p.Node)) {
				if errs[r] = ix.checkState(p, ix.valueBytes(p)); errs[r] != nil {
					return
				}
			}
		}
	})
	return cmp.Or(errs...)
}

// checkState checks p's state in every family against val.
func (ix *Snapshot) checkState(p Posting, val []byte) error {
	for _, f := range ix.fams {
		if err := f.check(ix, p, val); err != nil {
			return fmt.Errorf("core: %s index: %s: %w", f.label(), p.describe(), err)
		}
	}
	return nil
}

// Verify checks the full consistency of the indices against ground truth
// recomputed from the document: every node's state in every family equals
// the state of its materialised string value, every family's B+tree holds
// exactly the entries its state implies, every histogram tracks its tree,
// and the stable-id maps are mutually inverse. It is O(document²·depth)
// in the worst case and meant for tests.
func (ix *Snapshot) Verify() error {
	doc := ix.doc
	n := doc.NumNodes()
	if err := ix.checkStableMaps(); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		nd := xmltree.NodeID(i)
		if err := ix.checkState(NodePosting(nd), []byte(doc.StringValue(nd))); err != nil {
			return err
		}
	}
	for a := 0; a < doc.NumAttrs(); a++ {
		if err := ix.checkState(AttrPosting(xmltree.AttrID(a)), doc.AttrValueBytes(xmltree.AttrID(a))); err != nil {
			return err
		}
	}
	for _, f := range ix.fams {
		if err := ix.checkTree(f); err != nil {
			return fmt.Errorf("core: %s index: %w", f.label(), err)
		}
		if err := f.checkPartials(ix); err != nil {
			return fmt.Errorf("core: %s index: partials: %w", f.label(), err)
		}
	}
	return nil
}

// checkStableMaps requires both sides' stable-id maps to cover the
// document and to be mutually inverse on its live positions. Load needs
// no such check: it builds each inverse map from its column and retired
// ids (readStableSide).
func (ix *Snapshot) checkStableMaps() error {
	if ix.stableOf.Len() != ix.doc.NumNodes() || ix.attrStableOf.Len() != ix.doc.NumAttrs() {
		return fmt.Errorf("core: stable maps cover %d nodes and %d attributes, want %d and %d",
			ix.stableOf.Len(), ix.attrStableOf.Len(), ix.doc.NumNodes(), ix.doc.NumAttrs())
	}
	for side, what := range []string{"pre", "attr"} {
		stables, pos := ix.stableIDs(side)
		for i := range stables.Len() {
			if s := int(stables.At(i)); s >= pos.Len() || pos.At(s) != int32(i) {
				return fmt.Errorf("core: stable map broken at %s %d (stable %d)", what, i, s)
			}
		}
	}
	return nil
}

// checkTree compares f's tree entry by entry with the entries f's stored
// state implies, then its histogram with the tree.
func (ix *Snapshot) checkTree(f family) error {
	pt := f.postings()
	want := ix.entries(f, 1)
	if pt.tree.Len() != len(want) {
		return fmt.Errorf("tree has %d entries, want %d", pt.tree.Len(), len(want))
	}
	i := 0
	var err error
	pt.tree.Scan(func(key uint64, val uint32) bool {
		if w := want[i]; key != w.Key || val != w.Val {
			err = fmt.Errorf("tree entry %d is (%#x, %d), want (%#x, %d)", i, key, val, w.Key, w.Val)
			return false
		}
		i++
		return true
	})
	if err != nil {
		return err
	}
	return pt.checkStats()
}
