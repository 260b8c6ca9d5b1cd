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

// change is one commit in the decoded form of its log record: the
// record kind plus the fields that kind carries. Every write is a change
// run through Indexes.commit. The mutators below build one directly;
// recovery, followers and OpenAt decode one from a record (durable.go),
// so a replayed record takes exactly the path the original write took.
type change struct {
	kind   storage.RecordKind
	texts  []TextUpdate   // RecTextBatch
	attr   xmltree.AttrID // RecAttrUpdate
	value  string         // RecAttrUpdate
	node   xmltree.NodeID // RecDelete: the subtree root
	parent xmltree.NodeID // RecInsert
	pos    int            // RecInsert
	frag   *xmltree.Doc   // RecInsert
	gen    uint64         // RecCheckpoint: a log marker, never committed

	// record is the payload a decoded change came from: the log and the
	// commit hook see the bytes that arrived, not a re-encoding.
	record []byte
}

// ops is the number of logical operations the change carries: the batch
// size for text batches, 1 otherwise.
func (ch *change) ops() int {
	if ch.kind == storage.RecTextBatch {
		return len(ch.texts)
	}
	return 1
}

// validate checks ch against s before anything is logged or mutated: a
// validated change cannot fail when applied.
func (ch *change) validate(s *Snapshot) error {
	switch ch.kind {
	case storage.RecTextBatch:
		return s.validateTexts(ch.texts)
	case storage.RecAttrUpdate:
		return s.validateAttr(ch.attr)
	case storage.RecDelete:
		return s.validateDelete(ch.node)
	case storage.RecInsert:
		return s.validateInsert(ch.parent, ch.pos, ch.frag)
	}
	return fmt.Errorf("core: record kind %v is not a commit", ch.kind)
}

// apply runs a validated ch against a copy-on-write draft of s. It
// returns the draft and, for inserts, the first inserted node.
func (ch *change) apply(s *Snapshot) (*Snapshot, xmltree.NodeID, error) {
	d := s.draft()
	switch ch.kind {
	case storage.RecTextBatch:
		return d, xmltree.InvalidNode, d.applyTexts(ch.texts)
	case storage.RecAttrUpdate:
		d.applyAttr(ch.attr, ch.value)
		return d, xmltree.InvalidNode, nil
	case storage.RecDelete:
		return d, xmltree.InvalidNode, d.applyDelete(ch.node)
	default:
		at, err := d.applyInsert(ch.parent, ch.pos, ch.frag)
		return d, at, err
	}
}

// commit is the one write path: the paper's Figure 8 procedure with a
// write-ahead log in front. Under the writer mutex it checks the version
// precondition (next != 0: the change must publish exactly version
// next), validates ch against the current snapshot, appends its record
// to the attached WAL, applies it to a private draft, publishes the
// draft with one atomic store and notifies the commit hook. Concurrent
// readers keep running against the previous version throughout and
// observe the whole change or none of it. The record is encoded only
// when a WAL or a hook will see it; the same bytes feed both, so watch
// subscribers see exactly the records a WAL replay would.
func (ix *Indexes) commit(ch *change, next uint64) (xmltree.NodeID, error) {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	s := ix.cur.Load()
	if next != 0 && next != s.version+1 {
		return xmltree.InvalidNode, fmt.Errorf("%w: at version %d, the record publishes %d", ErrVersionGap, s.version, next)
	}
	if err := ch.validate(s); err != nil {
		return xmltree.InvalidNode, err
	}
	payload := ch.record
	if payload == nil && (ix.wal != nil || ix.onCommit != nil) {
		var err error
		if payload, err = ch.encode(); err != nil {
			return xmltree.InvalidNode, err
		}
	}
	if ix.wal != nil {
		if err := ix.wal.Append(ch.kind, payload); err != nil {
			return xmltree.InvalidNode, err
		}
	}
	draft, at, err := ch.apply(s)
	if err != nil {
		return xmltree.InvalidNode, err
	}
	ix.publish(draft)
	ix.notifyCommit(draft.version, ch.kind, ch.ops(), payload)
	return at, nil
}

// UpdateText changes the value of a single text node and maintains all
// indices.
func (ix *Indexes) UpdateText(n xmltree.NodeID, value string) error {
	return ix.UpdateTexts([]TextUpdate{{Node: n, Value: value}})
}

// UpdateTexts applies a batch of text-node value updates as one commit —
// the paper's Figure 8 algorithm. Each updated node is re-hashed / re-run
// through the FSMs once; every affected ancestor is then refolded exactly
// once from its children's stored fields, deepest first, and the
// B+trees are repaired by diffing keys.
func (ix *Indexes) UpdateTexts(updates []TextUpdate) error {
	if len(updates) == 0 {
		return nil
	}
	_, err := ix.commit(&change{kind: storage.RecTextBatch, texts: updates}, 0)
	return err
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
	var dirty []xmltree.NodeID
	for _, u := range updates {
		old := ix.captureKeys(NodePosting(u.Node))
		if err := doc.SetText(u.Node, u.Value); err != nil {
			return err
		}
		ix.refreshLeaf(NodePosting(u.Node), old)
		if xmltree.ContributesToParent(doc.Kind(u.Node)) {
			dirty = append(dirty, u.Node)
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
	sort.Slice(dirty, func(i, j int) bool { return dirty[i] < dirty[j] })
	ix.refoldAncestors(order, nil, dirty)
	ix.maintainStats()
	ix.maybeCompactHeap()
	return nil
}

// UpdateAttr changes an attribute value. Attribute values do not
// contribute to ancestor string values, so no refolding is needed.
func (ix *Indexes) UpdateAttr(a xmltree.AttrID, value string) error {
	_, err := ix.commit(&change{kind: storage.RecAttrUpdate, attr: a, value: value}, 0)
	return err
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
	_, err := ix.commit(&change{kind: storage.RecDelete, node: n}, 0)
	return err
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
	ix.refoldAncestors(chain, olds, nil)
	ix.maintainStats()
	ix.maybeCompactHeap()
	return nil
}

// InsertChildren inserts a fragment document's top-level nodes under
// parent at child index pos, indexes the new nodes with a scoped Figure 7
// pass, and refolds the ancestor chain. It returns the first inserted
// node.
func (ix *Indexes) InsertChildren(parent xmltree.NodeID, pos int, frag *xmltree.Doc) (xmltree.NodeID, error) {
	if pos < 0 {
		pos = 0 // the tree layer treats negative positions as "insert first"
	}
	return ix.commit(&change{kind: storage.RecInsert, parent: parent, pos: pos, frag: frag}, 0)
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
	ix.refoldAncestors(chain, olds, nil)
	ix.maintainStats()
	return at, nil
}
