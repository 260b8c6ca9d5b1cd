package xmltree

import (
	"fmt"
	"math"

	"repro/internal/storage"
)

// Document section format: uvarint columns in pre order, then the name
// dictionary, then the text heap, all through the storage codec.
//
//	counts:          n, na
//	kind[n]
//	size[n]          descendants, self excluded
//	name[n]          dictionary id + 1; 0 for none
//	valueLen[n]
//	attrCount[n]     attributes owned by each node
//	attrName[na]     dictionary id + 1
//	attrValueLen[na]
//	names            length-prefixed, one per name the columns use,
//	                 in first-use order
//	heap             node values then attribute values, concatenated
//
// Only what cannot be derived is stored: parents and levels follow from
// sizes, and attrStart is the prefix sum of the attribute counts. Values
// are written once per reference, so heap garbage never reaches the disk,
// and ReadDoc re-interns them into a hash-consed heap.

// Encode writes the document to e.
//
// Only live names hit the disk: deletions drop nodes but never
// dictionary entries, so a long-lived document's dictionary accretes
// dead names. Encode remaps name ids densely over the names actually
// referenced by a node or attribute (in first-use order, which is
// deterministic, keeping leader/follower snapshot bytes identical), so
// serialisation is the point where the dictionary sheds its garbage.
func (d *Doc) Encode(e *storage.Encoder) {
	remap := make([]NameID, d.names.count())
	for i := range remap {
		remap[i] = -1
	}
	live := make([]string, 0, d.names.count())
	ref := func(id NameID) uint64 {
		if id < 0 {
			return 0
		}
		if remap[id] < 0 {
			remap[id] = NameID(len(live))
			live = append(live, d.names.names[id])
		}
		return uint64(remap[id]) + 1
	}
	n, na := d.NumNodes(), d.NumAttrs()
	e.Uv(uint64(n))
	e.Uv(uint64(na))
	for i := 0; i < n; i++ {
		e.Uv(uint64(d.kind.At(i)))
	}
	for i := 0; i < n; i++ {
		e.Uv(uint64(d.size.At(i)))
	}
	for i := 0; i < n; i++ {
		e.Uv(ref(d.name.At(i)))
	}
	for i := 0; i < n; i++ {
		e.Uv(uint64(d.value.At(i).len))
	}
	for i := 0; i < n; i++ {
		e.Uv(uint64(d.attrStart.At(i+1) - d.attrStart.At(i)))
	}
	for a := 0; a < na; a++ {
		e.Uv(ref(d.attrName.At(a)))
	}
	for a := 0; a < na; a++ {
		e.Uv(uint64(d.attrValue.At(a).len))
	}
	for _, s := range live {
		e.Str(s)
	}
	for i := 0; i < n; i++ {
		e.Raw(d.heap.getBytes(d.value.At(i)))
	}
	for a := 0; a < na; a++ {
		e.Raw(d.heap.getBytes(d.attrValue.At(a)))
	}
}

// ReadDoc reads a document written by Encode and validates its
// structural invariants. Every count is bounded by the bytes left, and
// an input that decodes re-encodes to the same bytes: name ids must come
// in first-use order and every varint in its shortest form.
func ReadDoc(dec *storage.Decoder) (*Doc, error) {
	n := dec.Count(5) // a node is at least five varints
	na := dec.Count(2)
	if dec.Err() == nil && (n == 0 || n > math.MaxInt32-1 || na > math.MaxInt32-1) {
		return nil, fmt.Errorf("xmltree: implausible counts %d/%d", n, na)
	}
	if err := dec.Err(); err != nil {
		return nil, err
	}
	c := &columns{
		kind:      make([]Kind, n),
		size:      make([]int32, n),
		level:     make([]int32, n),
		parent:    make([]NodeID, n),
		name:      make([]NameID, n),
		value:     make([]valueRef, n),
		attrStart: make([]int32, n+1),
		attrName:  make([]NameID, na),
		attrValue: make([]valueRef, na),
	}
	names, heap := newNameDict(), newTextHeap()
	for i := range c.kind {
		c.kind[i] = Kind(dec.UpTo(uint64(PI)))
	}
	for i := range c.size {
		c.size[i] = int32(dec.UpTo(uint64(n - 1)))
	}
	used := 0 // names referenced so far; the next new one is used+1
	ref := func() NameID {
		v := dec.UpTo(uint64(used) + 1)
		if int(v) == used+1 {
			used++
		}
		return NameID(v) - 1
	}
	for i := range c.name {
		c.name[i] = ref()
	}
	var heapNeed uint64
	for i := range c.value {
		c.value[i].len = uint32(dec.UpTo(math.MaxUint32))
		heapNeed += uint64(c.value[i].len)
	}
	for i := 0; i < n; i++ {
		c.attrStart[i+1] = c.attrStart[i] + int32(dec.UpTo(uint64(na-int(c.attrStart[i]))))
	}
	if dec.Err() == nil && int(c.attrStart[n]) != na {
		return nil, fmt.Errorf("xmltree: nodes own %d attributes, want %d", c.attrStart[n], na)
	}
	for a := range c.attrName {
		c.attrName[a] = ref()
	}
	for a := range c.attrValue {
		c.attrValue[a].len = uint32(dec.UpTo(math.MaxUint32))
		heapNeed += uint64(c.attrValue[a].len)
	}
	for i := 0; i < used && dec.Err() == nil; i++ {
		if names.intern(dec.Str()) != NameID(i) {
			return nil, fmt.Errorf("xmltree: name %d repeats an earlier one", i)
		}
	}
	// The heap blob holds one copy per reference; re-interning collapses
	// repeated values onto one stored copy, so a loaded document gets
	// the same hash-consed layout a built one has.
	blob := dec.Raw(heapNeed)
	if err := dec.Err(); err != nil {
		return nil, err
	}
	for _, refs := range [][]valueRef{c.value, c.attrValue} {
		for i, r := range refs {
			if r.len > 0 {
				refs[i] = heap.put(blob[:r.len])
				blob = blob[r.len:]
			}
		}
	}
	if err := c.deriveParents(); err != nil {
		return nil, err
	}
	d := c.doc(names, heap)
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// deriveParents fills parent and level from size in one pass over pre
// order: a node's parent is the innermost open node whose range holds
// it. A size that overruns its parent's range is an error.
func (c *columns) deriveParents() error {
	n := len(c.kind)
	if int(c.size[0]) != n-1 {
		return fmt.Errorf("xmltree: document size %d, want %d", c.size[0], n-1)
	}
	c.parent[0] = InvalidNode
	end := func(i NodeID) int { return int(i) + int(c.size[i]) }
	open := []NodeID{0} // the root's range holds every node, so it stays
	for i := NodeID(1); int(i) < n; i++ {
		for end(open[len(open)-1]) < int(i) {
			open = open[:len(open)-1]
		}
		p := open[len(open)-1]
		if end(i) > end(p) {
			return fmt.Errorf("xmltree: node %d (size %d) overruns parent %d", i, c.size[i], p)
		}
		c.parent[i] = p
		c.level[i] = c.level[p] + 1
		open = append(open, i)
	}
	return nil
}
