package xmltree

import (
	"errors"
	"fmt"
)

// Builder constructs a Doc in document order through SAX-like events. A
// Builder may only be used for one document.
//
//	b := xmltree.NewBuilder()
//	b.StartElement("person")
//	b.Attribute("id", "p1")
//	b.Text("Arthur")
//	b.EndElement()
//	doc, err := b.Finish()
type Builder struct {
	cols     columns
	names    *nameDict
	heap     *textHeap
	open     []NodeID // stack of open element (and document) nodes
	finished bool
	err      error
}

// columns is a document's node and attribute tables as flat slices, the
// form Builder appends to, ReadDoc decodes into and InsertChildren
// inserts. doc copies each into its chunked column once.
type columns struct {
	kind      []Kind
	size      []int32
	level     []int32
	parent    []NodeID
	name      []NameID
	value     []valueRef
	attrStart []int32
	attrName  []NameID
	attrValue []valueRef
}

// doc returns a Doc holding c's tables, the dictionary and the heap.
func (c *columns) doc(names *nameDict, heap *textHeap) *Doc {
	d := &Doc{names: names, heap: heap}
	d.replace(InvalidNode, 0, 0, 0, 0, c)
	return d
}

// NewBuilder returns a Builder with the document node already open.
func NewBuilder() *Builder {
	b := &Builder{names: newNameDict(), heap: newTextHeap()}
	b.appendNode(Document, -1, valueRef{})
	b.open = append(b.open, 0)
	return b
}

func (b *Builder) appendNode(k Kind, name NameID, v valueRef) NodeID {
	c := &b.cols
	id := NodeID(len(c.kind))
	parent := InvalidNode
	level := int32(0)
	if len(b.open) > 0 {
		parent = b.open[len(b.open)-1]
		level = c.level[parent] + 1
	}
	c.kind = append(c.kind, k)
	c.size = append(c.size, 0)
	c.level = append(c.level, level)
	c.parent = append(c.parent, parent)
	c.name = append(c.name, name)
	c.value = append(c.value, v)
	c.attrStart = append(c.attrStart, int32(len(c.attrName)))
	return id
}

// StartElement opens a new element with the given tag.
func (b *Builder) StartElement(tag string) {
	if b.err != nil || b.fail(b.finished, "StartElement after Finish") {
		return
	}
	id := b.appendNode(Element, b.names.intern(tag), valueRef{})
	b.open = append(b.open, id)
}

// Attribute attaches an attribute to the most recently opened element.
// It must be called before any content is added to that element.
func (b *Builder) Attribute(name, value string) {
	if b.err != nil {
		return
	}
	c := &b.cols
	owner := b.open[len(b.open)-1]
	if b.fail(c.kind[owner] != Element, "Attribute outside an element") {
		return
	}
	// Attributes must be contiguous per owner: reject if content followed.
	if b.fail(NodeID(len(c.kind)-1) != owner, "Attribute after element content") {
		return
	}
	// attrStart[owner] was sealed at the owner's creation; entries for
	// later nodes pick up the grown count when they are created, so no
	// fix-up is needed here.
	c.attrName = append(c.attrName, b.names.intern(name))
	c.attrValue = append(c.attrValue, b.heap.putString(value))
}

// Text appends a text node. Adjacent Text calls produce adjacent text
// nodes (no merging); use the xmlparse package for XDM-merged parsing.
func (b *Builder) Text(data string) {
	if b.err != nil {
		return
	}
	b.appendNode(Text, -1, b.heap.putString(data))
}

// TextBytes is Text for a byte slice.
func (b *Builder) TextBytes(data []byte) {
	if b.err != nil {
		return
	}
	b.appendNode(Text, -1, b.heap.put(data))
}

// Comment appends a comment node.
func (b *Builder) Comment(data string) {
	if b.err != nil {
		return
	}
	b.appendNode(Comment, -1, b.heap.putString(data))
}

// PI appends a processing-instruction node with the given target and data.
func (b *Builder) PI(target, data string) {
	if b.err != nil {
		return
	}
	b.appendNode(PI, b.names.intern(target), b.heap.putString(data))
}

// EndElement closes the most recently opened element.
func (b *Builder) EndElement() {
	if b.err != nil || b.fail(len(b.open) <= 1, "EndElement without matching StartElement") {
		return
	}
	c := &b.cols
	id := b.open[len(b.open)-1]
	b.open = b.open[:len(b.open)-1]
	c.size[id] = int32(len(c.kind)) - int32(id) - 1
}

// Depth reports the number of currently open elements (excluding the
// document node).
func (b *Builder) Depth() int { return len(b.open) - 1 }

// Err returns the first construction error, if any.
func (b *Builder) Err() error { return b.err }

// Finish closes the document node and returns the built document. All
// elements must have been closed.
func (b *Builder) Finish() (*Doc, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.open) != 1 {
		return nil, fmt.Errorf("xmltree: Finish with %d unclosed elements", len(b.open)-1)
	}
	if b.finished {
		return nil, errors.New("xmltree: Finish called twice")
	}
	b.finished = true
	c := &b.cols
	c.size[0] = int32(len(c.kind)) - 1
	// Seal attrStart with the final sentinel: attrStart[i] was recorded at
	// node i's creation as the attribute count so far, which is exactly the
	// start of i's attribute range because attributes only attach to the
	// most recently created element.
	c.attrStart = append(c.attrStart, int32(len(c.attrName)))
	b.open = nil
	return c.doc(b.names, b.heap), nil
}

func (b *Builder) fail(cond bool, msg string) bool {
	if cond {
		b.err = errors.New("xmltree: " + msg)
	}
	return cond
}
