package xmltree

import (
	"errors"
	"fmt"
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
		old := d.value[n]
		d.value[n] = d.heap.putString(data)
		if d.value[n] != old {
			d.heap.dead += int(old.len)
		}
		return nil
	default:
		return fmt.Errorf("%w: %v node %d", ErrNotText, d.kind[n], n)
	}
}

// SetAttrValue replaces the value of attribute a.
func (d *Doc) SetAttrValue(a AttrID, value string) {
	old := d.attrValue[a]
	d.attrValue[a] = d.heap.putString(value)
	if d.attrValue[a] != old {
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

	// Shrink ancestor sizes before positions move.
	for p := d.parent[n]; p != InvalidNode; p = d.parent[p] {
		d.size[p] -= int32(cnt)
	}

	// The removed range's heap values become garbage (conservatively:
	// interned ranges may still be shared with surviving refs).
	for i := n; i < end; i++ {
		d.heap.dead += int(d.value[i].len)
	}
	for a := d.attrStart[n]; a < d.attrStart[end]; a++ {
		d.heap.dead += int(d.attrValue[a].len)
	}

	// Drop attributes owned by the removed range.
	alo, ahi := d.attrStart[n], d.attrStart[end]
	removedAttrs := ahi - alo
	if removedAttrs > 0 {
		d.attrName = append(d.attrName[:alo], d.attrName[ahi:]...)
		d.attrValue = append(d.attrValue[:alo], d.attrValue[ahi:]...)
	}
	// Splice attrStart (per-node entries) and shift the tail.
	d.attrStart = append(d.attrStart[:n], d.attrStart[end:]...)
	for i := int(n); i < len(d.attrStart); i++ {
		d.attrStart[i] -= removedAttrs
	}

	// Splice the node columns.
	d.kind = append(d.kind[:n], d.kind[end:]...)
	d.size = append(d.size[:n], d.size[end:]...)
	d.level = append(d.level[:n], d.level[end:]...)
	d.name = append(d.name[:n], d.name[end:]...)
	d.value = append(d.value[:n], d.value[end:]...)
	d.parent = append(d.parent[:n], d.parent[end:]...)

	// Re-point parents of shifted nodes. A shifted node's parent is either
	// < n (unchanged) or >= end (shifts by cnt); parents inside the removed
	// range are impossible because those children were removed with it.
	for i := int(n); i < len(d.parent); i++ {
		if d.parent[i] >= end {
			d.parent[i] -= cnt
		}
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

	// Grow ancestor sizes.
	for p := parent; p != InvalidNode; p = d.Parent(p) {
		d.size[p] += int32(cnt)
	}

	// Map fragment name ids and heap values into this document.
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
		values[j] = d.heap.put(frag.heap.getBytes(frag.value[f]))
		if fp := frag.parent[f]; fp == 0 {
			parents[j] = parent
		} else {
			parents[j] = at + fp - 1
		}
		starts[j] = alo + frag.attrStart[f] - frag.attrStart[1]
	}
	insAttrs := frag.attrStart[frag.NumNodes()] - frag.attrStart[1]

	// Splice attribute columns.
	if insAttrs > 0 {
		newAttrName := make([]NameID, 0, len(d.attrName)+int(insAttrs))
		newAttrName = append(newAttrName, d.attrName[:alo]...)
		for a := frag.attrStart[1]; a < frag.attrStart[frag.NumNodes()]; a++ {
			newAttrName = append(newAttrName, nameMap[frag.attrName[a]])
		}
		newAttrName = append(newAttrName, d.attrName[alo:]...)
		d.attrName = newAttrName

		newAttrValue := make([]valueRef, 0, len(d.attrValue)+int(insAttrs))
		newAttrValue = append(newAttrValue, d.attrValue[:alo]...)
		for a := frag.attrStart[1]; a < frag.attrStart[frag.NumNodes()]; a++ {
			newAttrValue = append(newAttrValue, d.heap.put(frag.heap.getBytes(frag.attrValue[a])))
		}
		newAttrValue = append(newAttrValue, d.attrValue[alo:]...)
		d.attrValue = newAttrValue
	}
	d.attrStart = splice(d.attrStart, int(at), starts)
	for i := int(at) + len(starts); i < len(d.attrStart); i++ {
		d.attrStart[i] += insAttrs
	}

	// Splice node columns.
	d.kind = splice(d.kind, int(at), kinds)
	d.size = splice(d.size, int(at), sizes)
	d.level = splice(d.level, int(at), levels)
	d.name = splice(d.name, int(at), names)
	d.value = splice(d.value, int(at), values)
	d.parent = splice(d.parent, int(at), parents)

	// Re-point parents of shifted tail nodes.
	for i := int(at) + int(cnt); i < len(d.parent); i++ {
		if d.parent[i] >= at {
			d.parent[i] += cnt
		}
	}
	return at, nil
}

// splice returns a new slice holding s with ins inserted at index at.
func splice[T any](s []T, at int, ins []T) []T {
	out := make([]T, 0, len(s)+len(ins))
	out = append(out, s[:at]...)
	out = append(out, ins...)
	return append(out, s[at:]...)
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
