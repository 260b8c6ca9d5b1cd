package core

import (
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/fsm"
	"repro/internal/pcol"
	"repro/internal/storage"
	"repro/internal/xmltree"
)

// typedFamily is one typed range index: the side table of FSM states and
// fragments (the paper's [node id, state] index), folded through the SCT,
// and the value B+tree (the paper's clustered [value, node id] index)
// from order-encoded values to postings of castable nodes. Which type it
// maintains is entirely determined by its TypeSpec.
type typedFamily struct {
	spec  TypeSpec
	sides [2]typedSide            // tree nodes by pre rank, attributes by id
	parts pcol.Sparse[[]fsm.Frag] // block partials by stable id (partials.go)
	postingTree
}

// typedSide is one side's state. Rejected positions store no fragment
// (absence = reject, as in the paper).
type typedSide struct {
	elems pcol.Dense[fsm.Elem] // Reject = not stored
	// items holds the digit runs and punctuation of live fragments (not
	// Reject, non-empty). Keyed by STABLE id so structural updates that
	// shift positions do not invalidate the table.
	items pcol.Sparse[[]fsm.Item]
}

func newTypedFamily(spec TypeSpec, n, na int) *typedFamily {
	return &typedFamily{spec: spec, sides: [2]typedSide{
		{elems: pcol.NewDense[fsm.Elem](n)}, // zero elem is fsm.Reject
		{elems: pcol.NewDense[fsm.Elem](na)},
	}}
}

func (t *typedFamily) label() string          { return t.spec.Name }
func (t *typedFamily) postings() *postingTree { return &t.postingTree }

func (t *typedFamily) frag(s *Snapshot, p Posting) fsm.Frag {
	sd := &t.sides[p.side()]
	e := sd.elems.At(p.pos())
	if e == fsm.Reject {
		return fsm.Frag{}
	}
	return fsm.Frag{Elem: e, Items: sd.items.Get(s.stable(p))}
}

// set stores p's fragment. fresh skips deleting the stale items of a
// position whose stable id cannot have any yet (build passes). An
// unchanged element is not rewritten: most refolded ancestors stay
// Reject, and rewriting them would copy their chunk.
func (t *typedFamily) set(s *Snapshot, p Posting, f fsm.Frag, fresh bool) {
	sd := &t.sides[p.side()]
	if sd.elems.At(p.pos()) != f.Elem {
		sd.elems.Set(p.pos(), f.Elem)
	}
	if f.Elem != fsm.Reject && len(f.Items) > 0 {
		sd.items.Set(s.stable(p), exactItems(f.Items))
	} else if !fresh {
		sd.items.Delete(s.stable(p))
	}
}

// exactItems returns items in an array of exactly their length: ParseFrag
// and Combine leave append slack, which the item tables would otherwise
// keep for the fragment's lifetime.
func exactItems(items []fsm.Item) []fsm.Item {
	if cap(items) == len(items) {
		return items
	}
	return append(make([]fsm.Item, 0, len(items)), items...)
}

// keys: the value tree holds castable text nodes, castable attributes and
// castable COMBINED elements (mixed content). Single-text wrapper
// elements share their text's value and are chain-lifted at query time
// (PostingIter.Next) instead of being stored — this is what keeps
// the typed index at a few percent of the database, as in the paper.
func (t *typedFamily) keys(s *Snapshot, p Posting, buf []uint64) []uint64 {
	e := t.sides[p.side()].elems.At(p.pos())
	if e == fsm.Reject || !t.spec.Machine.Castable(e) {
		return buf
	}
	if !p.IsAttr {
		switch s.doc.Kind(p.Node) {
		case xmltree.Element, xmltree.Document:
			if !isCombinedValue(s.doc, p.Node) {
				return buf
			}
		case xmltree.Comment, xmltree.PI:
			return buf
		}
	}
	if key, ok := t.spec.Encode(t.frag(s, p)); ok {
		buf = append(buf, key)
	}
	return buf
}

func (t *typedFamily) leaf(s *Snapshot, p Posting, val []byte) {
	f, _ := t.spec.Machine.ParseFrag(val) // rejected → zero Frag (Reject)
	t.set(s, p, f, false)
}

func (t *typedFamily) refold(s *Snapshot, n xmltree.NodeID, starts []int32, dirty []xmltree.NodeID) {
	t.set(s, NodePosting(n), foldPartials(s, t, &t.parts, n, starts, dirty), false)
}

// The typed monoid is the SCT's: a failed Combine is the zero Frag,
// Reject, which absorbs everything after it (the SCT's early-reject).
func (t *typedFamily) identity() fsm.Frag                           { return fsm.Frag{Elem: fsm.Identity} }
func (t *typedFamily) state(s *Snapshot, n xmltree.NodeID) fsm.Frag { return t.frag(s, NodePosting(n)) }
func (t *typedFamily) equal(a, b fsm.Frag) bool {
	return a.Elem == b.Elem && slices.Equal(a.Items, b.Items)
}
func (t *typedFamily) exact(acc, x fsm.Frag) bool { return fsm.MergeExact(acc, x) }
func (t *typedFamily) combine(acc, x fsm.Frag) (fsm.Frag, bool) {
	out, ok := t.spec.Machine.Combine(acc, x)
	return out, !ok
}

func (t *typedFamily) checkPartials(s *Snapshot) error { return checkPartials(s, t, &t.parts) }

// check compares elements and, when castable, the fragments' items,
// falling back to the reconstructed lexical forms only when the items
// differ: item-level equality can differ harmlessly in >17-digit
// approximation territory, and Lexical is a pure function of the items.
func (t *typedFamily) check(s *Snapshot, p Posting, val []byte) error {
	want, ok := t.spec.Machine.ParseFrag(val)
	got := t.frag(s, p)
	if !ok {
		if got.Elem != fsm.Reject {
			return fmt.Errorf("elem %d, want Reject (value %.40q)", got.Elem, val)
		}
		return nil
	}
	if got.Elem != want.Elem {
		return fmt.Errorf("elem %d, want %d (value %.40q)", got.Elem, want.Elem, val)
	}
	if !slices.Equal(got.Items, want.Items) && got.Lexical() != want.Lexical() {
		return fmt.Errorf("lexical %q, want %q", got.Lexical(), want.Lexical())
	}
	return nil
}

func (t *typedFamily) folder(s *Snapshot, held bool) folder {
	return &typedFolder{t: t, s: s, held: held}
}

// typedFolder writes elements straight into the columns (concurrent
// passes cover disjoint positions of freshly created columns, whose
// chunks are written in place) and, when held, keeps the items back for
// flush: the item tables are shared.
type typedFolder struct {
	t     *typedFamily
	s     *Snapshot
	stack []fsm.Frag
	held  bool
	items [2][]stableItems
}

// stableItems carries one position's items, keyed by stable id, from a
// held folder into its family's item table.
type stableItems struct {
	stable uint32
	items  []fsm.Item
}

// store records p's fragment and returns it as stored, with exact-length
// items, so a parent that folds it unchanged shares the stored array.
func (f *typedFolder) store(p Posting, fr fsm.Frag) fsm.Frag {
	fr.Items = exactItems(fr.Items)
	if !f.held {
		f.t.set(f.s, p, fr, true)
		return fr
	}
	f.t.sides[p.side()].elems.Set(p.pos(), fr.Elem)
	if fr.Elem != fsm.Reject && len(fr.Items) > 0 {
		f.items[p.side()] = append(f.items[p.side()], stableItems{f.s.stable(p), fr.Items})
	}
	return fr
}

func (f *typedFolder) open() { f.stack = append(f.stack, fsm.Frag{Elem: fsm.Identity}) }

func (f *typedFolder) leaf(p Posting, val []byte, contributes bool) {
	fr, _ := f.t.spec.Machine.ParseFrag(val)
	fr = f.store(p, fr)
	if contributes {
		f.fold(fr)
	}
}

func (f *typedFolder) close(n xmltree.NodeID) {
	fr := f.stack[len(f.stack)-1]
	f.stack = f.stack[:len(f.stack)-1]
	f.fold(f.store(NodePosting(n), fr))
}

func (f *typedFolder) fold(fr fsm.Frag) {
	if n := len(f.stack); n > 0 {
		f.stack[n-1], _ = f.t.combine(f.stack[n-1], fr)
	}
}

func (f *typedFolder) flush() {
	for side, held := range f.items {
		for _, si := range held {
			f.t.sides[side].items.Set(si.stable, si.items)
		}
	}
}

// draft clones both sides' columns; the fragment slices stay shared
// because set always replaces whole slices.
func (t *typedFamily) draft() family {
	c := *t
	for side := range t.sides {
		sd := &t.sides[side]
		c.sides[side] = typedSide{elems: sd.elems.Clone(), items: sd.items.Clone()}
	}
	c.parts = t.parts.Clone()
	c.postingTree = t.postingTree.clone()
	return &c
}

func (t *typedFamily) splice(side, at int, gone []uint32, ins int) {
	sd := &t.sides[side]
	for _, st := range gone {
		sd.items.Delete(st)
		if side == 0 {
			t.parts.Delete(st)
		}
	}
	sd.elems.Splice(at, len(gone), make([]fsm.Elem, ins))
}

// addStats appends the type's TypedStats entry.
func (t *typedFamily) addStats(s *Snapshot, st *IndexStats) {
	doc := s.doc
	ts := TypedStats{ID: t.spec.ID, Name: t.spec.Name}
	var buf []uint64
	for p := range s.postingRange(0, 1) {
		sd := &t.sides[p.side()]
		e := sd.elems.At(p.pos())
		if e == fsm.Reject {
			continue
		}
		text := !p.IsAttr && doc.Kind(p.Node) == xmltree.Text
		if e == fsm.Identity && !text {
			// Empty elements and attributes carry no information; the
			// paper would not store them either.
			continue
		}
		ts.Live++
		// 1 byte state (paper) + node id reference (4) per stored state.
		ts.Bytes += 5
		if text {
			ts.LiveTexts++
		}
		if buf = t.keys(s, p, buf[:0]); len(buf) > 0 {
			ts.Castable++
			ts.Bytes += 12 // value (8) + posting (4) in the B+tree
			switch {
			case text:
				ts.CastableTexts++
			case !p.IsAttr:
				ts.NonLeaf++ // combined values only reach the tree
			}
		}
		// Items persist as compact varints; estimate 2 bytes per item.
		ts.Bytes += 2 * len(sd.items.Get(s.stable(p)))
	}
	st.Typed = append(st.Typed, ts)
}

// addMem counts both sides' element chunks and item tables exactly,
// plus the item arrays the tables point to.
func (t *typedFamily) addMem(ms *MemStats) {
	ms.TypedTreeBytes += t.tree.MemBytes()
	const itemBytes = int(unsafe.Sizeof(fsm.Item{}))
	for side := range t.sides {
		sd := &t.sides[side]
		ms.SideBytes += sd.elems.MemBytes() + sd.items.MemBytes()
		for _, items := range sd.items.All() {
			ms.SideBytes += cap(items) * itemBytes
		}
	}
	ms.SideBytes += partialBytes(&t.parts)
	for _, states := range t.parts.All() {
		for _, f := range states {
			ms.SideBytes += cap(f.Items) * itemBytes
		}
	}
}

// save persists the value tree behind a type-ID header, so a reader can
// reject a section that holds another type's tree. The states are
// derived, refolded on load.
func (t *typedFamily) save(w *storage.Writer) error {
	return writeSection(w, TypedSectionName(t.spec.ID), func(e *storage.Encoder) {
		e.Uv(uint64(t.spec.ID))
		writeTree(e, t.tree)
	})
}

func (t *typedFamily) load(r *storage.Reader) error {
	d, err := openSection(r, TypedSectionName(t.spec.ID))
	if err != nil {
		return err
	}
	if id := TypeID(d.Uv()); d.Err() == nil && id != t.spec.ID {
		return fmt.Errorf("core: typed index %q: section holds type ID %d, want %d", t.spec.Name, id, t.spec.ID)
	}
	if err := readTree(d, &t.postingTree); err != nil {
		return fmt.Errorf("core: typed index %q: %w", t.spec.Name, err)
	}
	return nil
}
