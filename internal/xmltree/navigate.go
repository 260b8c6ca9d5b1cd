package xmltree

// FirstChild returns the first child of n, or InvalidNode if n is a leaf.
// In pre-order the first child, if any, is n+1.
func (d *Doc) FirstChild(n NodeID) NodeID {
	if d.Size(n) == 0 {
		return InvalidNode
	}
	return n + 1
}

// NextSibling returns the following sibling of n, or InvalidNode. In
// pre/size encoding the next sibling is n+size(n)+1 when it exists under
// the same parent.
func (d *Doc) NextSibling(n NodeID) NodeID {
	if n == 0 {
		return InvalidNode
	}
	next := n + NodeID(d.Size(n)) + 1
	if int(next) >= d.NumNodes() || d.parent.At(int(next)) != d.parent.At(int(n)) {
		return InvalidNode
	}
	return next
}

// PrevSibling returns the preceding sibling of n, or InvalidNode. This is
// an O(children) left-to-right walk (the encoding has no O(1) reverse
// pointer; callers in the update algorithm use LeftmostSibling + forward
// walks instead, as the paper does).
func (d *Doc) PrevSibling(n NodeID) NodeID {
	if n == 0 {
		return InvalidNode
	}
	c := d.FirstChild(d.Parent(n))
	if c == n {
		return InvalidNode
	}
	for {
		next := d.NextSibling(c)
		if next == n {
			return c
		}
		c = next
	}
}

// LeftmostSibling returns the first child of n's parent (n itself if n is
// that child). For the document node it returns the document node.
func (d *Doc) LeftmostSibling(n NodeID) NodeID {
	if n == 0 {
		return 0
	}
	return d.Parent(n) + 1
}

// LastChild returns the last child of n, or InvalidNode.
func (d *Doc) LastChild(n NodeID) NodeID {
	c := d.FirstChild(n)
	if c == InvalidNode {
		return InvalidNode
	}
	for {
		next := d.NextSibling(c)
		if next == InvalidNode {
			return c
		}
		c = next
	}
}

// Children returns the child NodeIDs of n in document order.
func (d *Doc) Children(n NodeID) []NodeID {
	var out []NodeID
	for c := d.FirstChild(n); c != InvalidNode; c = d.NextSibling(c) {
		out = append(out, c)
	}
	return out
}

// NumChildren counts the children of n.
func (d *Doc) NumChildren(n NodeID) int {
	cnt := 0
	for c := d.FirstChild(n); c != InvalidNode; c = d.NextSibling(c) {
		cnt++
	}
	return cnt
}

// Descendants calls f for every descendant of n (excluding n) in document
// order; f returning false stops the walk early.
func (d *Doc) Descendants(n NodeID, f func(NodeID) bool) {
	end := n + NodeID(d.Size(n))
	for i := n + 1; i <= end; i++ {
		if !f(i) {
			return
		}
	}
}

// DescendantTexts calls f for every text node in the subtree of n
// (including n if n is itself a text node) in document order.
func (d *Doc) DescendantTexts(n NodeID, f func(NodeID) bool) {
	end := n + NodeID(d.Size(n))
	for i := n; i <= end; {
		kinds := d.kind.Chunk(int(i))
		for _, k := range kinds[:min(len(kinds), int(end-i)+1)] {
			if k == Text && !f(i) {
				return
			}
			i++
		}
	}
}

// Ancestors returns the ancestor chain of n from parent to document node.
func (d *Doc) Ancestors(n NodeID) []NodeID {
	var out []NodeID
	for p := d.Parent(n); p != InvalidNode; p = d.Parent(p) {
		out = append(out, p)
	}
	return out
}

// Cursor is the depth-first traversal interface the paper's create and
// update algorithms (Figures 7 and 8) are written against: it mirrors the
// DFS module calls used there (getRoot, nextChildNode, nextSiblingNode,
// getFatherNode, hasSiblingNode, leftMostSibling). All operations are
// evaluated against the cursor's current node.
type Cursor struct {
	doc *Doc
	cur NodeID
}

// NewCursor returns a cursor positioned at the document root.
func NewCursor(d *Doc) *Cursor { return &Cursor{doc: d, cur: 0} }

// Node reports the cursor's current node.
func (c *Cursor) Node() NodeID { return c.cur }

// MoveTo repositions the cursor at n.
func (c *Cursor) MoveTo(n NodeID) { c.cur = n }

// Root repositions the cursor at the document node and returns it.
func (c *Cursor) Root() NodeID {
	c.cur = 0
	return c.cur
}

// HasChild reports whether the current node has children.
func (c *Cursor) HasChild() bool { return c.doc.Size(c.cur) != 0 }

// NextChild moves to the first child of the current node and returns it;
// the cursor is unchanged and InvalidNode is returned if there is none.
func (c *Cursor) NextChild() NodeID {
	if n := c.doc.FirstChild(c.cur); n != InvalidNode {
		c.cur = n
		return n
	}
	return InvalidNode
}

// HasSibling reports whether the current node has a following sibling.
func (c *Cursor) HasSibling() bool { return c.doc.NextSibling(c.cur) != InvalidNode }

// NextSibling moves to the following sibling and returns it; the cursor is
// unchanged and InvalidNode is returned if there is none.
func (c *Cursor) NextSibling() NodeID {
	if n := c.doc.NextSibling(c.cur); n != InvalidNode {
		c.cur = n
		return n
	}
	return InvalidNode
}

// Father moves to the parent of the current node and returns it; the
// cursor is unchanged and InvalidNode is returned at the document node.
func (c *Cursor) Father() NodeID {
	if n := c.doc.Parent(c.cur); n != InvalidNode {
		c.cur = n
		return n
	}
	return InvalidNode
}

// LeftmostSibling moves to the first sibling of the current node (possibly
// itself) and returns it.
func (c *Cursor) LeftmostSibling() NodeID {
	c.cur = c.doc.LeftmostSibling(c.cur)
	return c.cur
}
