// Package xmltree implements the XML document storage substrate the value
// indices are built on: a columnar node table in pre-order with the
// pre/size/level range encoding used by MonetDB/XQuery (Boncz et al.,
// SIGMOD 2006), a shared text heap, a tag-name dictionary, and a separate
// attribute table.
//
// The encoding supports the operations the paper's index create/update
// algorithms (Figures 7 and 8) rely on: O(1) first-child / next-sibling /
// parent navigation, O(1) ancestor tests via range containment, and
// efficient depth-first traversal. Every column is a persistent chunked
// column (internal/pcol; see cow.go): a value update copies one chunk,
// and a structural update (subtree delete/insert) rewrites every column
// from the edit point on. That is O(chunk + depth) at the document's
// tail and O(N − at) in the middle, as pre ranks, parents and attribute
// starts are absolute; O(chunk) anywhere needs relative parents and a
// per-chunk count directory.
package xmltree

import (
	"fmt"

	"repro/internal/pcol"
)

// Kind classifies a node in the tree node table. Attribute nodes live in a
// separate table (see Attr) and are not Kinds of tree nodes.
type Kind uint8

const (
	// Document is the root node of a document; exactly one per Document
	// value, always NodeID 0.
	Document Kind = iota
	// Element is an XML element node.
	Element
	// Text is a text node. Its Value is the character data.
	Text
	// Comment is an XML comment node. Comments do not contribute to the
	// string value of their ancestors (XDM semantics).
	Comment
	// PI is a processing-instruction node. Like comments, PIs do not
	// contribute to ancestor string values.
	PI
)

// String returns a human-readable kind name.
func (k Kind) String() string {
	switch k {
	case Document:
		return "document"
	case Element:
		return "element"
	case Text:
		return "text"
	case Comment:
		return "comment"
	case PI:
		return "pi"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// NodeID identifies a tree node by its pre-order rank within its Document.
// The document node is always 0. NodeIDs are dense: 0..NumNodes()-1.
type NodeID int32

// InvalidNode is returned by navigation functions when no node exists in
// the requested direction.
const InvalidNode NodeID = -1

// AttrID identifies an attribute by its rank in the attribute table, which
// is ordered by owner element pre-order rank.
type AttrID int32

// InvalidAttr is returned when an attribute lookup fails.
const InvalidAttr AttrID = -1

// NameID indexes the tag-name dictionary shared by a Document.
type NameID int32

// valueRef locates a byte range in the text heap.
type valueRef struct {
	off uint32
	len uint32
}

// Doc is an XML document stored columnar in pre-order. The zero value is
// not usable; construct documents with a Builder or the xmlparse package.
type Doc struct {
	kind   pcol.Dense[Kind]
	size   pcol.Dense[int32] // number of descendants (self excluded)
	level  pcol.Dense[int32]
	parent pcol.Dense[NodeID]
	name   pcol.Dense[NameID]   // element tag / PI target; -1 otherwise
	value  pcol.Dense[valueRef] // text/comment/PI content; zero otherwise

	// Attribute table, sorted by owner. attrStart[pre] .. attrStart[pre+1]
	// indexes the owner's attributes (attrStart has NumNodes()+1 entries).
	attrStart pcol.Dense[int32]
	attrName  pcol.Dense[NameID]
	attrValue pcol.Dense[valueRef]

	names *nameDict
	heap  *textHeap
}

// NumNodes reports the number of tree nodes (document, element, text,
// comment, PI) in the document.
func (d *Doc) NumNodes() int { return d.kind.Len() }

// NumAttrs reports the number of attribute nodes in the document.
func (d *Doc) NumAttrs() int { return d.attrName.Len() }

// Root returns the document node.
func (d *Doc) Root() NodeID { return 0 }

// Kind reports the kind of node n.
func (d *Doc) Kind(n NodeID) Kind { return d.kind.At(int(n)) }

// Size reports the number of descendants of n (excluding n itself). The
// subtree of n occupies pre-order ranks n..n+Size(n).
func (d *Doc) Size(n NodeID) int32 { return d.size.At(int(n)) }

// Level reports the depth of n; the document node has level 0.
func (d *Doc) Level(n NodeID) int32 { return d.level.At(int(n)) }

// Parent returns the parent of n, or InvalidNode for the document node.
func (d *Doc) Parent(n NodeID) NodeID {
	if n == 0 {
		return InvalidNode
	}
	return d.parent.At(int(n))
}

// Name returns the tag name of an element or the target of a PI, and ""
// for other kinds.
func (d *Doc) Name(n NodeID) string {
	id := d.NameID(n)
	if id < 0 {
		return ""
	}
	return d.names.lookup(id)
}

// NameID returns the dictionary id of n's tag name, or -1 if n has none.
func (d *Doc) NameID(n NodeID) NameID { return d.name.At(int(n)) }

// Chunk returns the kinds, name ids and sizes of the nodes from n to the
// end of n's column chunk, for passes that test every node or child of a
// range in place a chunk at a time. The slices alias the document and
// must not be modified.
func (d *Doc) Chunk(n NodeID) (kinds []Kind, names []NameID, sizes []int32) {
	return d.kind.Chunk(int(n)), d.name.Chunk(int(n)), d.size.Chunk(int(n))
}

// NameIDOf returns the dictionary id for tag, or -1 if the tag does not
// occur in the document.
func (d *Doc) NameIDOf(tag string) NameID { return d.names.find(tag) }

// Value returns the character data of a text, comment, or PI node, and ""
// for document and element nodes (use StringValue for those).
func (d *Doc) Value(n NodeID) string { return d.heap.get(d.value.At(int(n))) }

// ValueBytes is Value without the string copy; the returned slice aliases
// the document heap and must not be modified.
func (d *Doc) ValueBytes(n NodeID) []byte { return d.heap.getBytes(d.value.At(int(n))) }

// IsAncestorOf reports whether a is a proper ancestor of n, using the
// pre/size range containment test.
func (d *Doc) IsAncestorOf(a, n NodeID) bool {
	return a < n && n <= a+NodeID(d.Size(a))
}

// Contains reports whether n lies in the subtree rooted at a (including
// a itself).
func (d *Doc) Contains(a, n NodeID) bool {
	return a <= n && n <= a+NodeID(d.Size(a))
}

// Attr describes one attribute node.
type Attr struct {
	Owner NodeID
	Name  string
	Value string
}

// AttrRange returns the half-open range [lo, hi) of AttrIDs owned by
// element n.
func (d *Doc) AttrRange(n NodeID) (lo, hi AttrID) {
	return AttrID(d.attrStart.At(int(n))), AttrID(d.attrStart.At(int(n) + 1))
}

// AttrOwner returns the element owning attribute a.
func (d *Doc) AttrOwner(a AttrID) NodeID {
	// attrStart is monotone; binary search for the owner whose range
	// contains a.
	lo, hi := 0, d.NumNodes()
	for lo < hi {
		mid := (lo + hi) / 2
		if d.attrStart.At(mid+1) <= int32(a) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return NodeID(lo)
}

// AttrName returns the name of attribute a.
func (d *Doc) AttrName(a AttrID) string { return d.names.lookup(d.AttrNameID(a)) }

// AttrNameID returns the dictionary id of attribute a's name.
func (d *Doc) AttrNameID(a AttrID) NameID { return d.attrName.At(int(a)) }

// AttrValue returns the value of attribute a.
func (d *Doc) AttrValue(a AttrID) string { return d.heap.get(d.attrValue.At(int(a))) }

// AttrValueBytes is AttrValue without the string copy; the slice aliases
// the document heap.
func (d *Doc) AttrValueBytes(a AttrID) []byte { return d.heap.getBytes(d.attrValue.At(int(a))) }

// FindAttr returns the id of the attribute of element n named name, or
// InvalidAttr.
func (d *Doc) FindAttr(n NodeID, name string) AttrID {
	id := d.names.find(name)
	if id < 0 {
		return InvalidAttr
	}
	lo, hi := d.AttrRange(n)
	for a := lo; a < hi; a++ {
		if d.AttrNameID(a) == id {
			return a
		}
	}
	return InvalidAttr
}

// HeapBytes reports the current size of the text heap in bytes, including
// garbage left behind by value updates.
func (d *Doc) HeapBytes() int { return d.heap.size() }

// DeadHeapBytes reports the heap bytes abandoned by value overwrites and
// subtree deletions since the last Compact — a conservative upper bound
// (an abandoned range may still be live through interning) that callers
// use to decide when compaction pays.
func (d *Doc) DeadHeapBytes() int { return d.heap.dead }

// LiveHeapBytes reports the number of heap bytes currently referenced by
// nodes and attributes. Interned values shared by several references are
// counted once per reference, so this can exceed HeapBytes on heavily
// deduplicated documents.
func (d *Doc) LiveHeapBytes() int {
	var n int
	for i := range d.value.Len() {
		n += int(d.value.At(i).len)
	}
	for a := range d.attrValue.Len() {
		n += int(d.attrValue.At(a).len)
	}
	return n
}

// MemBytes reports the document's in-memory footprint: the columnar node
// and attribute tables by their spines and chunks, the text heap's
// backing array, and the name dictionary. The intern table is excluded —
// it is shared writer-side bookkeeping, not reader-hot state.
func (d *Doc) MemBytes() int {
	b := d.kind.MemBytes() + d.size.MemBytes() + d.level.MemBytes() +
		d.parent.MemBytes() + d.name.MemBytes() + d.value.MemBytes() +
		d.attrStart.MemBytes() + d.attrName.MemBytes() + d.attrValue.MemBytes() +
		cap(d.heap.data)
	for _, s := range d.names.names {
		b += len(s) + 16 // string header
	}
	b += len(d.names.byName) * 48 // rough per-entry map cost
	return b
}

// Stats summarises the node population of a document; it backs Table 1 of
// the paper.
type Stats struct {
	Nodes    int // tree nodes + attributes ("Total Nodes" in Table 1)
	Tree     int // tree nodes only
	Elements int
	Texts    int
	Attrs    int
	Comments int
	PIs      int
	MaxLevel int
}

// CollectStats scans the node table and returns population counts.
func (d *Doc) CollectStats() Stats {
	var s Stats
	s.Tree = d.NumNodes()
	s.Attrs = d.NumAttrs()
	s.Nodes = s.Tree + s.Attrs
	for i := range s.Tree {
		switch d.kind.At(i) {
		case Element:
			s.Elements++
		case Text:
			s.Texts++
		case Comment:
			s.Comments++
		case PI:
			s.PIs++
		}
		if l := int(d.level.At(i)); l > s.MaxLevel {
			s.MaxLevel = l
		}
	}
	return s
}
