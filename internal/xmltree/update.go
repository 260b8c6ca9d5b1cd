package xmltree

import (
	"errors"
	"fmt"

	"repro/internal/pcol"
)

// ErrNotText is returned by SetText when the target cannot carry character
// data.
var ErrNotText = errors.New("xmltree: node has no character data")

// SetText replaces the character data of a text, comment, or PI node. The
// tree structure is unchanged; the new value is appended to the heap (the
// old range becomes garbage reclaimable with Compact).
func (d *Doc) SetText(n NodeID, data string) error {
	switch d.Kind(n) {
	case Text, Comment, PI:
		d.setValue(&d.value, int(n), data)
		return nil
	default:
		return fmt.Errorf("%w: %v node %d", ErrNotText, d.Kind(n), n)
	}
}

// SetAttrValue replaces the value of attribute a.
func (d *Doc) SetAttrValue(a AttrID, value string) {
	d.setValue(&d.attrValue, int(a), value)
}

func (d *Doc) setValue(col *pcol.Dense[valueRef], i int, data string) {
	old, ref := col.At(i), d.heap.putString(data)
	col.Set(i, ref)
	if ref != old {
		d.heap.dead += int(old.len)
	}
}

// DeleteSubtree removes node n and its entire subtree (including owned
// attributes) from the document. The document node cannot be deleted.
// NodeIDs after the deleted range shift down; callers holding NodeIDs must
// treat them as invalidated.
func (d *Doc) DeleteSubtree(n NodeID) error {
	if n == 0 {
		return errors.New("xmltree: cannot delete the document node")
	}
	end := n + NodeID(d.Size(n)) + 1 // one past the removed pre range
	alo, ahi := d.attrStart.At(int(n)), d.attrStart.At(int(end))

	// The removed range's heap values become garbage (conservatively:
	// interned ranges may still be shared with surviving refs).
	for i := n; i < end; i++ {
		d.heap.dead += int(d.value.At(int(i)).len)
	}
	for a := alo; a < ahi; a++ {
		d.heap.dead += int(d.attrValue.At(int(a)).len)
	}
	d.replace(d.Parent(n), int(n), int(end-n), int(alo), int(ahi-alo), &columns{})
	return nil
}

// InsertChildren inserts all top-level nodes of the fragment document frag
// (the children of frag's document node) as children of parent, in front
// of the child currently at index pos (pos == number of children appends).
// It returns the NodeID of the first inserted node. NodeIDs at or after
// the insertion point shift up; callers must treat held NodeIDs as
// invalidated.
func (d *Doc) InsertChildren(parent NodeID, pos int, frag *Doc) (NodeID, error) {
	switch d.Kind(parent) {
	case Element, Document:
	default:
		return InvalidNode, fmt.Errorf("xmltree: cannot insert under %v node", d.Kind(parent))
	}
	cnt := NodeID(frag.NumNodes()) - 1 // exclude frag's document node
	if cnt <= 0 {
		return InvalidNode, errors.New("xmltree: empty fragment")
	}

	// Locate the pre-order insertion point.
	at := parent + 1
	i := 0
	for c := d.FirstChild(parent); c != InvalidNode && i < pos; c = d.NextSibling(c) {
		at = c + NodeID(d.Size(c)) + 1
		i++
	}
	if i < pos {
		return InvalidNode, fmt.Errorf("xmltree: child index %d out of range (%d children)", pos, i)
	}

	// Map fragment name ids and heap values into this document. The name
	// dictionary is shared with the version d was cloned from (see
	// cow.go), so a name it lacks goes into a copy. nameMap[id+1] is
	// fragment name id's id here, and nameMap[0] maps -1 (no name).
	nameMap, copied := make([]NameID, 1+frag.names.count()), false
	nameMap[0] = -1
	for id, s := range frag.names.names {
		if nameMap[id+1] = d.names.find(s); nameMap[id+1] < 0 {
			if !copied {
				d.names, copied = d.names.clone(), true
			}
			nameMap[id+1] = d.names.intern(s)
		}
	}

	// The inserted nodes (fragment nodes 1..cnt) and their attributes.
	levelBase := d.Level(parent) + 1
	alo := d.attrStart.At(int(at))
	flo, fhi := frag.attrStart.At(1), frag.attrStart.At(frag.NumNodes())
	ins := columns{
		kind:      make([]Kind, cnt),
		size:      make([]int32, cnt),
		level:     make([]int32, cnt),
		parent:    make([]NodeID, cnt),
		name:      make([]NameID, cnt),
		value:     make([]valueRef, cnt),
		attrStart: make([]int32, cnt),
		attrName:  make([]NameID, fhi-flo),
		attrValue: make([]valueRef, fhi-flo),
	}
	for f := NodeID(1); f <= cnt; f++ {
		j := f - 1
		ins.kind[j] = frag.Kind(f)
		ins.size[j] = frag.Size(f)
		ins.level[j] = frag.Level(f) - 1 + levelBase
		ins.name[j] = nameMap[frag.NameID(f)+1]
		ins.value[j] = d.heap.put(frag.ValueBytes(f))
		if fp := frag.Parent(f); fp == 0 {
			ins.parent[j] = parent
		} else {
			ins.parent[j] = at + fp - 1
		}
		ins.attrStart[j] = alo + frag.attrStart.At(int(f)) - flo
	}
	for a := flo; a < fhi; a++ {
		ins.attrName[a-flo] = nameMap[frag.AttrNameID(AttrID(a))+1]
		ins.attrValue[a-flo] = d.heap.put(frag.AttrValueBytes(AttrID(a)))
	}
	d.replace(parent, int(at), 0, int(alo), 0, &ins)
	return at, nil
}

// replace puts the nodes and attributes of ins, children of parent, in
// place of the del nodes at at and the adel attributes at aat they own.
// It then moves the later nodes' parents and attribute starts by the
// change in count and applies it to the size of parent and each
// ancestor, which precede at and so keep their ranks. Every column keeps
// its chunks before the edit point. A whole document is one replace in
// an empty one, its attribute starts sentinel included.
func (d *Doc) replace(parent NodeID, at, del, aat, adel int, ins *columns) {
	d.kind.Splice(at, del, ins.kind)
	d.size.Splice(at, del, ins.size)
	d.level.Splice(at, del, ins.level)
	d.parent.Splice(at, del, ins.parent)
	d.name.Splice(at, del, ins.name)
	d.value.Splice(at, del, ins.value)
	d.attrStart.Splice(at, del, ins.attrStart)
	d.attrName.Splice(aat, adel, ins.attrName)
	d.attrValue.Splice(aat, adel, ins.attrValue)

	// A later node's parent is either before at (unchanged) or at or past
	// the removed range: parents inside it went with their children.
	shift, ashift := len(ins.kind)-del, int32(len(ins.attrName)-adel)
	for i := at + len(ins.attrStart); i < d.attrStart.Len(); i++ {
		if ashift != 0 {
			d.attrStart.Set(i, d.attrStart.At(i)+ashift)
		}
		if i < d.NumNodes() {
			if p := d.parent.At(i); p >= NodeID(at+del) {
				d.parent.Set(i, p+NodeID(shift))
			}
		}
	}
	for p := parent; p != InvalidNode; p = d.Parent(p) {
		d.size.Set(int(p), d.Size(p)+int32(shift))
	}
}

// Validate checks the structural invariants of the node table: sizes
// partition subtrees, levels are parent+1, parents contain their children,
// and the attribute table is monotone. It is used by tests and the storage
// layer after load.
func (d *Doc) Validate() error {
	n := d.NumNodes()
	if n == 0 {
		return errors.New("xmltree: empty document")
	}
	if d.Kind(0) != Document {
		return errors.New("xmltree: node 0 is not the document node")
	}
	if int(d.Size(0)) != n-1 {
		return fmt.Errorf("xmltree: document size %d, want %d", d.Size(0), n-1)
	}
	if d.attrStart.Len() != n+1 {
		return fmt.Errorf("xmltree: attrStart has %d entries, want %d", d.attrStart.Len(), n+1)
	}
	for i := 1; i < n; i++ {
		id := NodeID(i)
		p := d.Parent(id)
		if p < 0 || p >= id {
			return fmt.Errorf("xmltree: node %d has bad parent %d", i, p)
		}
		if !d.Contains(p, id) {
			return fmt.Errorf("xmltree: node %d outside parent %d range", i, p)
		}
		if d.Level(id) != d.Level(p)+1 {
			return fmt.Errorf("xmltree: node %d level %d, parent level %d", i, d.Level(id), d.Level(p))
		}
		if end := int(id) + int(d.Size(id)); end >= n || !d.Contains(p, id+NodeID(d.Size(id))) {
			return fmt.Errorf("xmltree: node %d subtree exceeds parent", i)
		}
		switch d.Kind(id) {
		case Text, Comment:
			if d.Size(id) != 0 {
				return fmt.Errorf("xmltree: %v node %d has descendants", d.Kind(id), i)
			}
		case Document:
			return fmt.Errorf("xmltree: nested document node %d", i)
		}
		if lo, hi := d.AttrRange(id); lo > hi {
			return fmt.Errorf("xmltree: attrStart not monotone at %d", i)
		} else if lo != hi && d.Kind(id) != Element {
			return fmt.Errorf("xmltree: non-element node %d owns attributes", i)
		}
	}
	if int(d.attrStart.At(n)) != d.NumAttrs() {
		return fmt.Errorf("xmltree: attrStart sentinel %d, want %d", d.attrStart.At(n), d.NumAttrs())
	}
	// Children must tile each parent's range.
	for i := 0; i < n; i++ {
		id := NodeID(i)
		if d.Size(id) == 0 {
			continue
		}
		covered := NodeID(0)
		for c := d.FirstChild(id); c != InvalidNode; c = d.NextSibling(c) {
			covered += NodeID(d.Size(c)) + 1
		}
		if covered != NodeID(d.Size(id)) {
			return fmt.Errorf("xmltree: children of %d cover %d of %d", i, covered, d.Size(id))
		}
	}
	return nil
}
