package xmltree

import "strings"

// StringValue computes the XDM string value of n: for text, comment, and
// PI nodes their own character data; for element and document nodes the
// concatenation of the string values of all descendant text nodes in
// document order (comments, PIs, and attributes do not contribute).
//
// This is the operation the paper's indices exist to avoid during
// maintenance: it touches every descendant text node.
func (d *Doc) StringValue(n NodeID) string {
	switch d.kind[n] {
	case Text, Comment, PI:
		return d.Value(n)
	}
	var sb strings.Builder
	end := n + NodeID(d.size[n])
	for i := n + 1; i <= end; i++ {
		if d.kind[i] == Text {
			sb.Write(d.heap.getBytes(d.value.At(int(i))))
		}
	}
	return sb.String()
}

// AppendStringValue appends the string value of n to dst and returns the
// extended slice, avoiding intermediate allocations.
func (d *Doc) AppendStringValue(dst []byte, n NodeID) []byte {
	switch d.kind[n] {
	case Text, Comment, PI:
		return append(dst, d.heap.getBytes(d.value.At(int(n)))...)
	}
	end := n + NodeID(d.size[n])
	for i := n + 1; i <= end; i++ {
		if d.kind[i] == Text {
			dst = append(dst, d.heap.getBytes(d.value.At(int(i)))...)
		}
	}
	return dst
}

// ContributesToParent reports whether node kind k participates in the
// string value of its ancestors. Only element subtrees and text nodes do;
// comments and PIs are skipped per the XQuery data model.
func ContributesToParent(k Kind) bool { return k == Element || k == Text }
