package xmltree

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/pcol"
)

// ErrNotText is returned by SetText when the target cannot carry character
// data.
var ErrNotText = errors.New("xmltree: node has no character data")

// SetText replaces the character data of a text, comment, or PI node. The
// tree structure is unchanged; the new value is appended to the heap (the
// old range becomes garbage reclaimable with Compact).
func (d *Doc) SetText(n NodeID, data string) error {
	switch d.kind[n] {
	case Text, Comment, PI:
		d.setValue(&d.value, int(n), data)
		return nil
	default:
		return fmt.Errorf("%w: %v node %d", ErrNotText, d.kind[n], n)
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
	cnt := NodeID(d.size[n]) + 1
	end := n + cnt // one past the removed pre range
	alo, ahi := d.attrStart[n], d.attrStart[end]
	removedAttrs := ahi - alo
	parent := d.parent[n]

	// The removed range's heap values become garbage (conservatively:
	// interned ranges may still be shared with surviving refs).
	for i := n; i < end; i++ {
		d.heap.dead += int(d.value.At(int(i)).len)
	}
	for a := alo; a < ahi; a++ {
		d.heap.dead += int(d.attrValue.At(int(a)).len)
	}

	// Every column is shared with the version d was cloned from (see
	// cow.go), so each splice below writes a fresh one.
	d.attrName = splice(d.attrName, int(alo), int(removedAttrs), nil)
	d.attrValue.Splice(int(alo), int(removedAttrs), nil)
	d.attrStart = splice(d.attrStart, int(n), int(cnt), nil)
	for i := int(n); i < len(d.attrStart); i++ {
		d.attrStart[i] -= removedAttrs
	}
	d.kind = splice(d.kind, int(n), int(cnt), nil)
	d.size = splice(d.size, int(n), int(cnt), nil)
	d.level = splice(d.level, int(n), int(cnt), nil)
	d.name = splice(d.name, int(n), int(cnt), nil)
	d.value.Splice(int(n), int(cnt), nil)
	d.parent = splice(d.parent, int(n), int(cnt), nil)

	// Re-point parents of shifted nodes. A shifted node's parent is either
	// < n (unchanged) or >= end (shifts by cnt); parents inside the removed
	// range are impossible because those children were removed with it.
	for i := int(n); i < len(d.parent); i++ {
		if d.parent[i] >= end {
			d.parent[i] -= cnt
		}
	}
	// Shrink ancestor sizes; ancestors precede n, so they did not move.
	for p := parent; p != InvalidNode; p = d.Parent(p) {
		d.size[p] -= int32(cnt)
	}
	return nil
}

// InsertChildren inserts all top-level nodes of the fragment document frag
// (the children of frag's document node) as children of parent, in front
// of the child currently at index pos (pos == number of children appends).
// It returns the NodeID of the first inserted node. NodeIDs at or after
// the insertion point shift up; callers must treat held NodeIDs as
// invalidated.
func (d *Doc) InsertChildren(parent NodeID, pos int, frag *Doc) (NodeID, error) {
	switch d.kind[parent] {
	case Element, Document:
	default:
		return InvalidNode, fmt.Errorf("xmltree: cannot insert under %v node", d.kind[parent])
	}
	cnt := NodeID(frag.NumNodes()) - 1 // exclude frag's document node
	if cnt <= 0 {
		return InvalidNode, errors.New("xmltree: empty fragment")
	}

	// Locate the pre-order insertion point.
	at := parent + 1
	i := 0
	for c := d.FirstChild(parent); c != InvalidNode && i < pos; c = d.NextSibling(c) {
		at = c + NodeID(d.size[c]) + 1
		i++
	}
	if i < pos {
		return InvalidNode, fmt.Errorf("xmltree: child index %d out of range (%d children)", pos, i)
	}

	// Map fragment name ids and heap values into this document. The name
	// dictionary, like every column, is shared with the version d was
	// cloned from (see cow.go), so new names go into a copy.
	d.names = d.names.clone()
	nameMap := make([]NameID, frag.names.count())
	for id, s := range frag.names.names {
		nameMap[id] = d.names.intern(s)
	}

	// Prepare inserted columns (fragment nodes 1..cnt).
	levelBase := d.level[parent] + 1
	kinds := make([]Kind, cnt)
	sizes := make([]int32, cnt)
	levels := make([]int32, cnt)
	names := make([]NameID, cnt)
	values := make([]valueRef, cnt)
	parents := make([]NodeID, cnt)
	starts := make([]int32, cnt)
	alo := d.attrStart[at]
	for f := NodeID(1); f <= cnt; f++ {
		j := f - 1
		kinds[j] = frag.kind[f]
		sizes[j] = frag.size[f]
		levels[j] = frag.level[f] - 1 + levelBase
		if id := frag.name[f]; id >= 0 {
			names[j] = nameMap[id]
		} else {
			names[j] = -1
		}
		values[j] = d.heap.put(frag.heap.getBytes(frag.value.At(int(f))))
		if fp := frag.parent[f]; fp == 0 {
			parents[j] = parent
		} else {
			parents[j] = at + fp - 1
		}
		starts[j] = alo + frag.attrStart[f] - frag.attrStart[1]
	}
	flo, fhi := frag.attrStart[1], frag.attrStart[frag.NumNodes()]
	insAttrs := fhi - flo

	// Splice attribute columns.
	if insAttrs > 0 {
		attrNames := make([]NameID, 0, insAttrs)
		attrValues := make([]valueRef, 0, insAttrs)
		for a := flo; a < fhi; a++ {
			attrNames = append(attrNames, nameMap[frag.attrName[a]])
			attrValues = append(attrValues, d.heap.put(frag.heap.getBytes(frag.attrValue.At(int(a)))))
		}
		d.attrName = splice(d.attrName, int(alo), 0, attrNames)
		d.attrValue.Splice(int(alo), 0, attrValues)
	}
	d.attrStart = splice(d.attrStart, int(at), 0, starts)
	for i := int(at) + len(starts); i < len(d.attrStart); i++ {
		d.attrStart[i] += insAttrs
	}

	// Splice node columns.
	d.kind = splice(d.kind, int(at), 0, kinds)
	d.size = splice(d.size, int(at), 0, sizes)
	d.level = splice(d.level, int(at), 0, levels)
	d.name = splice(d.name, int(at), 0, names)
	d.value.Splice(int(at), 0, values)
	d.parent = splice(d.parent, int(at), 0, parents)

	// Re-point parents of shifted tail nodes.
	for i := int(at) + int(cnt); i < len(d.parent); i++ {
		if d.parent[i] >= at {
			d.parent[i] += cnt
		}
	}
	// Grow ancestor sizes; ancestors precede at, so they did not move.
	for p := parent; p != InvalidNode; p = d.Parent(p) {
		d.size[p] += int32(cnt)
	}
	return at, nil
}

// splice returns a new slice holding s with del elements at at replaced
// by ins; s itself is left untouched.
func splice[T any](s []T, at, del int, ins []T) []T {
	return slices.Concat(s[:at], ins, s[at+del:])
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
	if d.kind[0] != Document {
		return errors.New("xmltree: node 0 is not the document node")
	}
	if int(d.size[0]) != n-1 {
		return fmt.Errorf("xmltree: document size %d, want %d", d.size[0], n-1)
	}
	if len(d.attrStart) != n+1 {
		return fmt.Errorf("xmltree: attrStart has %d entries, want %d", len(d.attrStart), n+1)
	}
	for i := 1; i < n; i++ {
		id := NodeID(i)
		p := d.parent[i]
		if p < 0 || p >= id {
			return fmt.Errorf("xmltree: node %d has bad parent %d", i, p)
		}
		if !d.Contains(p, id) {
			return fmt.Errorf("xmltree: node %d outside parent %d range", i, p)
		}
		if d.level[i] != d.level[p]+1 {
			return fmt.Errorf("xmltree: node %d level %d, parent level %d", i, d.level[i], d.level[p])
		}
		if end := int(id) + int(d.size[i]); end >= n || !d.Contains(p, id+NodeID(d.size[i])) {
			return fmt.Errorf("xmltree: node %d subtree exceeds parent", i)
		}
		switch d.kind[i] {
		case Text, Comment:
			if d.size[i] != 0 {
				return fmt.Errorf("xmltree: %v node %d has descendants", d.kind[i], i)
			}
		case Document:
			return fmt.Errorf("xmltree: nested document node %d", i)
		}
		if d.attrStart[i] > d.attrStart[i+1] {
			return fmt.Errorf("xmltree: attrStart not monotone at %d", i)
		}
		if d.attrStart[i] != d.attrStart[i+1] && d.kind[i] != Element {
			return fmt.Errorf("xmltree: non-element node %d owns attributes", i)
		}
	}
	if int(d.attrStart[n]) != len(d.attrName) {
		return fmt.Errorf("xmltree: attrStart sentinel %d, want %d", d.attrStart[n], len(d.attrName))
	}
	// Children must tile each parent's range.
	for i := 0; i < n; i++ {
		id := NodeID(i)
		if d.size[i] == 0 {
			continue
		}
		covered := NodeID(0)
		for c := d.FirstChild(id); c != InvalidNode; c = d.NextSibling(c) {
			covered += NodeID(d.size[c]) + 1
		}
		if covered != NodeID(d.size[i]) {
			return fmt.Errorf("xmltree: children of %d cover %d of %d", i, covered, d.size[i])
		}
	}
	return nil
}
