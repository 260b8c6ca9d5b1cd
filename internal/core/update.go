package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/storage"
	"repro/internal/xmltree"
)

// TextUpdate assigns a new value to one text (or comment/PI) node.
type TextUpdate struct {
	Node  xmltree.NodeID
	Value string
}

// UpdateText changes the value of a single text node and maintains all
// indices.
func (ix *Indexes) UpdateText(n xmltree.NodeID, value string) error {
	return ix.UpdateTexts([]TextUpdate{{Node: n, Value: value}})
}

// UpdateTexts applies a batch of text-node value updates — the paper's
// Figure 8 algorithm. Each updated node is re-hashed / re-run through the
// FSMs once; every affected ancestor is then refolded exactly once from
// its children's stored fields, deepest first, and the B+trees are
// repaired by diffing keys.
//
// Like every mutating entry point, the batch is validated against the
// current snapshot, write-ahead logged, applied to a private
// copy-on-write draft, and published atomically — concurrent readers
// keep running against the previous version throughout and observe the
// whole batch or none of it.
func (ix *Indexes) UpdateTexts(updates []TextUpdate) error {
	if len(updates) == 0 {
		return nil
	}
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	s := ix.cur.Load()
	if err := s.validateTexts(updates); err != nil {
		return err
	}
	// Write-ahead: the batch is logged (one record per UpdateTexts call,
	// hence one per transaction commit) before any state changes. The
	// same encoding feeds the commit hook, so watch subscribers see
	// exactly the records a WAL replay would.
	var payload []byte
	if ix.wal != nil || ix.onCommit != nil {
		payload = encodeTextBatch(updates)
	}
	if ix.wal != nil {
		if err := ix.logRecord(storage.RecTextBatch, payload); err != nil {
			return err
		}
	}
	draft := s.draft(writesNodes)
	if err := draft.applyTexts(updates); err != nil {
		return err
	}
	ix.publish(draft)
	ix.notifyCommit(draft.version, storage.RecTextBatch, len(updates), payload)
	return nil
}

// validateTexts rejects a batch that names non-value-carrying or
// out-of-range nodes, before anything is logged or mutated.
func (ix *Snapshot) validateTexts(updates []TextUpdate) error {
	doc := ix.doc
	for _, u := range updates {
		if u.Node < 0 || int(u.Node) >= doc.NumNodes() {
			return fmt.Errorf("core: node %d out of range", u.Node)
		}
		switch doc.Kind(u.Node) {
		case xmltree.Text, xmltree.Comment, xmltree.PI:
		default:
			return fmt.Errorf("core: node %d is a %v, not a value-carrying node", u.Node, doc.Kind(u.Node))
		}
	}
	return nil
}

// applyTexts performs a validated batch against document and indices.
func (ix *Snapshot) applyTexts(updates []TextUpdate) error {
	doc := ix.doc
	affected := make(map[xmltree.NodeID]struct{})
	for _, u := range updates {
		old := ix.captureKeys(NodePosting(u.Node))
		if err := doc.SetText(u.Node, u.Value); err != nil {
			return err
		}
		ix.refreshLeaf(NodePosting(u.Node), old)
		if xmltree.ContributesToParent(doc.Kind(u.Node)) {
			for p := doc.Parent(u.Node); p != xmltree.InvalidNode; p = doc.Parent(p) {
				if _, seen := affected[p]; seen {
					break // this ancestor chain is already queued
				}
				affected[p] = struct{}{}
			}
		}
	}
	// Refold deepest first: descending pre order puts children before
	// parents.
	order := make([]xmltree.NodeID, 0, len(affected))
	for n := range affected {
		order = append(order, n)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] > order[j] })
	ix.refoldAncestors(order, nil)
	ix.maintainStats()
	ix.maybeCompactHeap()
	return nil
}

// UpdateAttr changes an attribute value. Attribute values do not
// contribute to ancestor string values, so no refolding is needed.
func (ix *Indexes) UpdateAttr(a xmltree.AttrID, value string) error {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	s := ix.cur.Load()
	if err := s.validateAttr(a); err != nil {
		return err
	}
	var payload []byte
	if ix.wal != nil || ix.onCommit != nil {
		payload = encodeAttrUpdate(a, value)
	}
	if ix.wal != nil {
		if err := ix.logRecord(storage.RecAttrUpdate, payload); err != nil {
			return err
		}
	}
	draft := s.draft(writesAttrs)
	draft.applyAttr(a, value)
	ix.publish(draft)
	ix.notifyCommit(draft.version, storage.RecAttrUpdate, 1, payload)
	return nil
}

func (ix *Snapshot) validateAttr(a xmltree.AttrID) error {
	if a < 0 || int(a) >= ix.doc.NumAttrs() {
		return fmt.Errorf("core: attribute %d out of range", a)
	}
	return nil
}

func (ix *Snapshot) applyAttr(a xmltree.AttrID, value string) {
	p := AttrPosting(a)
	old := ix.captureKeys(p)
	ix.doc.SetAttrValue(a, value)
	ix.refreshLeaf(p, old)
	ix.maintainStats()
	ix.maybeCompactHeap()
}

// DeleteSubtree removes node n with its subtree from the document and all
// indices, then refolds the ancestor chain (the paper's subtree-deletion
// variant of Figure 8).
func (ix *Indexes) DeleteSubtree(n xmltree.NodeID) error {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	s := ix.cur.Load()
	if err := s.validateDelete(n); err != nil {
		return err
	}
	var payload []byte
	if ix.wal != nil || ix.onCommit != nil {
		payload = encodeDelete(n)
	}
	if ix.wal != nil {
		if err := ix.logRecord(storage.RecDelete, payload); err != nil {
			return err
		}
	}
	draft := s.draft(writesStructure)
	if err := draft.applyDelete(n); err != nil {
		return err
	}
	ix.publish(draft)
	ix.notifyCommit(draft.version, storage.RecDelete, 1, payload)
	return nil
}

func (ix *Snapshot) validateDelete(n xmltree.NodeID) error {
	if n <= 0 || int(n) >= ix.doc.NumNodes() {
		if n == 0 {
			return errors.New("core: cannot delete the document node")
		}
		return fmt.Errorf("core: node %d out of range", n)
	}
	return nil
}

func (ix *Snapshot) applyDelete(n xmltree.NodeID) error {
	doc := ix.doc
	end := n + xmltree.NodeID(doc.Size(n))
	alo, _ := doc.AttrRange(n)
	_, ahi := doc.AttrRange(end)
	chain, olds := ix.captureChain(doc.Parent(n))

	// Remove the postings of every node and attribute in the range.
	for i := n; i <= end; i++ {
		ix.post(NodePosting(i), false)
	}
	for a := alo; a < ahi; a++ {
		ix.post(AttrPosting(a), false)
	}
	if err := doc.DeleteSubtree(n); err != nil {
		return err
	}
	ix.spliceSide(0, int(n), int(end-n)+1, 0)
	ix.spliceSide(1, int(alo), int(ahi-alo), 0)

	// Refold the ancestor chain against the pre-captured keys.
	ix.refoldAncestors(chain, olds)
	ix.maintainStats()
	ix.maybeCompactHeap()
	return nil
}

// InsertChildren inserts a fragment document's top-level nodes under
// parent at child index pos, indexes the new nodes with a scoped Figure 7
// pass, and refolds the ancestor chain. It returns the first inserted
// node.
func (ix *Indexes) InsertChildren(parent xmltree.NodeID, pos int, frag *xmltree.Doc) (xmltree.NodeID, error) {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	if pos < 0 {
		pos = 0 // the tree layer treats negative positions as "insert first"
	}
	s := ix.cur.Load()
	if err := s.validateInsert(parent, pos, frag); err != nil {
		return xmltree.InvalidNode, err
	}
	var payload []byte
	if ix.wal != nil || ix.onCommit != nil {
		var err error
		if payload, err = encodeInsert(parent, pos, frag); err != nil {
			return xmltree.InvalidNode, err
		}
	}
	if ix.wal != nil {
		if err := ix.logRecord(storage.RecInsert, payload); err != nil {
			return xmltree.InvalidNode, err
		}
	}
	draft := s.draft(writesStructure)
	at, err := draft.applyInsert(parent, pos, frag)
	if err != nil {
		return xmltree.InvalidNode, err
	}
	ix.publish(draft)
	ix.notifyCommit(draft.version, storage.RecInsert, 1, payload)
	return at, nil
}

// validateInsert mirrors the tree layer's insertion checks so the
// operation can be logged before any mutation: a validated insert cannot
// fail when applied.
func (ix *Snapshot) validateInsert(parent xmltree.NodeID, pos int, frag *xmltree.Doc) error {
	doc := ix.doc
	if parent < 0 || int(parent) >= doc.NumNodes() {
		return fmt.Errorf("core: node %d out of range", parent)
	}
	switch doc.Kind(parent) {
	case xmltree.Element, xmltree.Document:
	default:
		return fmt.Errorf("core: cannot insert under %v node", doc.Kind(parent))
	}
	if frag.NumNodes() <= 1 {
		return errors.New("core: empty fragment")
	}
	if pos > 0 {
		children := 0
		for c := doc.FirstChild(parent); c != xmltree.InvalidNode; c = doc.NextSibling(c) {
			children++
		}
		if pos > children {
			return fmt.Errorf("core: child index %d out of range (%d children)", pos, children)
		}
	}
	return nil
}

func (ix *Snapshot) applyInsert(parent xmltree.NodeID, pos int, frag *xmltree.Doc) (xmltree.NodeID, error) {
	doc := ix.doc
	// Pre-capture ancestor keys: insertion can turn a wrapper element
	// into a combined one, changing its tree membership.
	chain, olds := ix.captureChain(parent)
	at, err := doc.InsertChildren(parent, pos, frag)
	if err != nil {
		return xmltree.InvalidNode, err
	}
	last := at + xmltree.NodeID(frag.NumNodes()-1) - 1
	alo, _ := doc.AttrRange(at)
	_, ahi := doc.AttrRange(last)
	ix.spliceSide(0, int(at), 0, int(last-at)+1)
	ix.spliceSide(1, int(alo), 0, int(ahi-alo))

	// Compute state for the inserted range and add its postings.
	folds := ix.folders(false)
	ix.buildPass(at, last, folds)
	ix.buildAttrs(alo, ahi-1, folds)
	for i := at; i <= last; i++ {
		ix.post(NodePosting(i), true)
	}
	for a := alo; a < ahi; a++ {
		ix.post(AttrPosting(a), true)
	}

	// Refold the chain from the insertion parent upwards against the
	// pre-captured keys.
	ix.refoldAncestors(chain, olds)
	ix.maintainStats()
	return at, nil
}
