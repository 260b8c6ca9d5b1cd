package xmltree

import "unsafe"

// StringValue computes the XDM string value of n: for text, comment, and
// PI nodes their own character data; for element and document nodes the
// concatenation of the string values of all descendant text nodes in
// document order (comments, PIs, and attributes do not contribute).
//
// This is the operation the paper's indices exist to avoid during
// maintenance: it touches every descendant text node.
func (d *Doc) StringValue(n NodeID) string {
	b := d.AppendStringValue(nil, n) // owned by nobody else: no copy needed
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// AppendStringValue appends the string value of n to dst and returns the
// extended slice, avoiding intermediate allocations. It reads the kind
// and value columns a chunk at a time.
func (d *Doc) AppendStringValue(dst []byte, n NodeID) []byte {
	switch d.Kind(n) {
	case Text, Comment, PI:
		return append(dst, d.ValueBytes(n)...)
	}
	end := n + NodeID(d.Size(n))
	for i := n + 1; i <= end; {
		kinds, vals := d.kind.Chunk(int(i)), d.value.Chunk(int(i))
		kinds = kinds[:min(len(kinds), int(end-i)+1)]
		for j, k := range kinds {
			if k == Text {
				dst = append(dst, d.heap.getBytes(vals[j])...)
			}
		}
		i += NodeID(len(kinds))
	}
	return dst
}

// ContributesToParent reports whether node kind k participates in the
// string value of its ancestors. Only element subtrees and text nodes do;
// comments and PIs are skipped per the XQuery data model.
func ContributesToParent(k Kind) bool { return k == Element || k == Text }
