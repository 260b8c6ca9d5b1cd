package core

import (
	"fmt"

	"repro/internal/fsm"
	"repro/internal/vhash"
	"repro/internal/xmltree"
)

// VerifyLeaves checks the stored per-leaf state against ground truth:
// every value-carrying leaf's (and attribute's) hash must equal H of its
// character data, and its state under each typed index must match a
// fresh FSM run. Interior hashes and states are derived from leaves by
// the fold, so this is the recovery contract's integrity check — O(total
// character data), cheap enough to run at every OpenDurable, unlike the
// full Verify.
func (ix *Snapshot) VerifyLeaves() error {
	doc := ix.doc
	for i := 0; i < doc.NumNodes(); i++ {
		nd := xmltree.NodeID(i)
		switch doc.Kind(nd) {
		case xmltree.Text, xmltree.Comment, xmltree.PI:
		default:
			continue
		}
		val := doc.ValueBytes(nd)
		if ix.hash != nil {
			if want := vhash.Hash(val); ix.hash[i] != want {
				return fmt.Errorf("core: leaf %d hash %#x, want %#x", i, ix.hash[i], want)
			}
		}
		for _, ti := range ix.typed {
			wantFrag, ok := ti.spec.Machine.ParseFrag(val)
			got := ti.frag(nd, ix.stableOf[i])
			if !ok {
				if got.Elem != fsm.Reject {
					return fmt.Errorf("core: leaf %d %s elem %d, want Reject", i, ti.spec.Name, got.Elem)
				}
				continue
			}
			if got.Elem != wantFrag.Elem || got.Lexical() != wantFrag.Lexical() {
				return fmt.Errorf("core: leaf %d %s state mismatch", i, ti.spec.Name)
			}
		}
	}
	for a := 0; a < doc.NumAttrs(); a++ {
		ad := xmltree.AttrID(a)
		val := doc.AttrValueBytes(ad)
		if ix.attrHash != nil {
			if want := vhash.Hash(val); ix.attrHash[a] != want {
				return fmt.Errorf("core: attr %d hash %#x, want %#x", a, ix.attrHash[a], want)
			}
		}
		for _, ti := range ix.typed {
			wantFrag, ok := ti.spec.Machine.ParseFrag(val)
			got := ti.attrFrag(ad, ix.attrStableOf[a])
			if !ok {
				if got.Elem != fsm.Reject {
					return fmt.Errorf("core: attr %d %s elem %d, want Reject", a, ti.spec.Name, got.Elem)
				}
				continue
			}
			if got.Elem != wantFrag.Elem || got.Lexical() != wantFrag.Lexical() {
				return fmt.Errorf("core: attr %d %s state mismatch", a, ti.spec.Name)
			}
		}
	}
	return nil
}

// Verify checks the full consistency of the indices against ground truth
// recomputed from the document: per-node hashes equal H of materialised
// string values, per-node elements and values equal a fresh FSM run for
// every typed index in the registry, the B+trees contain exactly the
// expected postings, and the stable-id maps are mutually inverse. It is
// O(document²·depth) in the worst case and meant for tests.
func (ix *Snapshot) Verify() error {
	doc := ix.doc
	n := doc.NumNodes()

	if len(ix.stableOf) != n {
		return fmt.Errorf("core: stableOf has %d entries, want %d", len(ix.stableOf), n)
	}
	for i := 0; i < n; i++ {
		s := ix.stableOf[i]
		if int(s) >= len(ix.preOf) || ix.preOf[s] != int32(i) {
			return fmt.Errorf("core: stable map broken at pre %d (stable %d)", i, s)
		}
	}
	for a := 0; a < doc.NumAttrs(); a++ {
		s := ix.attrStableOf[a]
		if int(s) >= len(ix.attrOf) || ix.attrOf[s] != int32(a) {
			return fmt.Errorf("core: attr stable map broken at %d", a)
		}
	}

	strEntries := 0
	typedEntries := make([]int, len(ix.typed))
	for i := 0; i < n; i++ {
		nd := xmltree.NodeID(i)
		sv := doc.StringValue(nd)
		if ix.hash != nil {
			if want := vhash.HashString(sv); ix.hash[i] != want {
				return fmt.Errorf("core: node %d hash %#x, want %#x (value %.40q)", i, ix.hash[i], want, sv)
			}
		}
		if err := ix.verifyTyped(nd, sv); err != nil {
			return err
		}
		if indexedNodeKind(doc.Kind(nd)) {
			strEntries++
		}
		for t, ti := range ix.typed {
			if _, ok := ti.treeKey(doc, nd, ix.stableOf[i]); ok {
				typedEntries[t]++
			}
		}
	}
	for a := 0; a < doc.NumAttrs(); a++ {
		ad := xmltree.AttrID(a)
		sv := doc.AttrValue(ad)
		if ix.attrHash != nil {
			if want := vhash.HashString(sv); ix.attrHash[a] != want {
				return fmt.Errorf("core: attr %d hash %#x, want %#x", a, ix.attrHash[a], want)
			}
		}
		if err := ix.verifyTypedAttr(ad, sv); err != nil {
			return err
		}
		strEntries++
		for t, ti := range ix.typed {
			if _, ok := ti.attrKey(ad, ix.attrStableOf[a]); ok {
				typedEntries[t]++
			}
		}
	}

	// Tree cardinalities, then per-posting membership.
	if ix.strTree != nil && ix.strTree.Len() != strEntries {
		return fmt.Errorf("core: string tree has %d entries, want %d", ix.strTree.Len(), strEntries)
	}
	for t, ti := range ix.typed {
		if ti.tree.Len() != typedEntries[t] {
			return fmt.Errorf("core: %s tree has %d entries, want %d", ti.spec.Name, ti.tree.Len(), typedEntries[t])
		}
	}
	for i := 0; i < n; i++ {
		nd := xmltree.NodeID(i)
		if !indexedNodeKind(doc.Kind(nd)) {
			continue
		}
		stable := ix.stableOf[i]
		posting := packPosting(stable, false)
		if ix.strTree != nil && !ix.strTree.Contains(uint64(ix.hash[i]), posting) {
			return fmt.Errorf("core: string tree missing node %d", i)
		}
		for _, ti := range ix.typed {
			if key, ok := ti.treeKey(doc, nd, stable); ok && !ti.tree.Contains(key, posting) {
				return fmt.Errorf("core: %s tree missing node %d", ti.spec.Name, i)
			}
		}
	}
	for a := 0; a < doc.NumAttrs(); a++ {
		ad := xmltree.AttrID(a)
		stable := ix.attrStableOf[a]
		posting := packPosting(stable, true)
		if ix.strTree != nil && !ix.strTree.Contains(uint64(ix.attrHash[a]), posting) {
			return fmt.Errorf("core: string tree missing attr %d", a)
		}
		for _, ti := range ix.typed {
			if key, ok := ti.attrKey(ad, stable); ok && !ti.tree.Contains(key, posting) {
				return fmt.Errorf("core: %s tree missing attr %d", ti.spec.Name, a)
			}
		}
	}

	// Planner statistics: every histogram's maintained population must
	// track its tree exactly (bounds may be stale between rebuilds, the
	// counts never are).
	if ix.strTree != nil && ix.strStats != nil {
		if got := ix.strStats.sum(); got != ix.strTree.Len() {
			return fmt.Errorf("core: string histogram population %d, tree has %d", got, ix.strTree.Len())
		}
		if ix.strStats.total != ix.strTree.Len() {
			return fmt.Errorf("core: string stats total %d, tree has %d", ix.strStats.total, ix.strTree.Len())
		}
	}
	for _, ti := range ix.typed {
		if ti.stats == nil {
			continue
		}
		if got := ti.stats.sum(); got != ti.tree.Len() {
			return fmt.Errorf("core: %s histogram population %d, tree has %d", ti.spec.Name, got, ti.tree.Len())
		}
		if ti.stats.total != ti.tree.Len() {
			return fmt.Errorf("core: %s stats total %d, tree has %d", ti.spec.Name, ti.stats.total, ti.tree.Len())
		}
	}
	return ix.verifySubstr()
}

func (ix *Snapshot) verifyTyped(n xmltree.NodeID, sv string) error {
	for _, ti := range ix.typed {
		wantFrag, ok := ti.spec.Machine.ParseFragString(sv)
		gotElem := ti.elems[n]
		if !ok {
			if gotElem != fsm.Reject {
				return fmt.Errorf("core: node %d %s elem %d, want Reject (value %.40q)", n, ti.spec.Name, gotElem, sv)
			}
			continue
		}
		got := ti.frag(n, ix.stableOf[n])
		if got.Elem != wantFrag.Elem {
			return fmt.Errorf("core: node %d %s elem %d, want %d (value %.40q)", n, ti.spec.Name, got.Elem, wantFrag.Elem, sv)
		}
		// Values must agree when castable; item-level equality can differ
		// harmlessly in >17-digit approximation territory, so compare the
		// reconstruction.
		if got.Lexical() != wantFrag.Lexical() {
			return fmt.Errorf("core: node %d %s lexical %q, want %q", n, ti.spec.Name, got.Lexical(), wantFrag.Lexical())
		}
	}
	return nil
}

func (ix *Snapshot) verifyTypedAttr(a xmltree.AttrID, sv string) error {
	for _, ti := range ix.typed {
		wantFrag, ok := ti.spec.Machine.ParseFragString(sv)
		gotElem := ti.attrElems[a]
		if !ok {
			if gotElem != fsm.Reject {
				return fmt.Errorf("core: attr %d %s elem %d, want Reject", a, ti.spec.Name, gotElem)
			}
			continue
		}
		got := ti.attrFrag(a, ix.attrStableOf[a])
		if got.Elem != wantFrag.Elem || got.Lexical() != wantFrag.Lexical() {
			return fmt.Errorf("core: attr %d %s frag mismatch", a, ti.spec.Name)
		}
	}
	return nil
}
