package xmltree

import (
	"fmt"
	"math"

	"repro/internal/pcol"
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
		e.Uv(uint64(d.kind[i]))
	}
	for i := 0; i < n; i++ {
		e.Uv(uint64(d.size[i]))
	}
	for i := 0; i < n; i++ {
		e.Uv(ref(d.name[i]))
	}
	for i := 0; i < n; i++ {
		e.Uv(uint64(d.value.At(i).len))
	}
	for i := 0; i < n; i++ {
		e.Uv(uint64(d.attrStart[i+1] - d.attrStart[i]))
	}
	for a := 0; a < na; a++ {
		e.Uv(ref(d.attrName[a]))
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
	d := &Doc{
		kind:      make([]Kind, n),
		size:      make([]int32, n),
		level:     make([]int32, n),
		parent:    make([]NodeID, n),
		name:      make([]NameID, n),
		value:     pcol.NewDense[valueRef](n),
		attrStart: make([]int32, n+1),
		attrName:  make([]NameID, na),
		attrValue: pcol.NewDense[valueRef](na),
		names:     newNameDict(),
		heap:      newTextHeap(),
	}
	for i := range d.kind {
		d.kind[i] = Kind(dec.UpTo(uint64(PI)))
	}
	for i := range d.size {
		d.size[i] = int32(dec.UpTo(uint64(n - 1)))
	}
	used := 0 // names referenced so far; the next new one is used+1
	ref := func() NameID {
		v := dec.UpTo(uint64(used) + 1)
		if int(v) == used+1 {
			used++
		}
		return NameID(v) - 1
	}
	for i := range d.name {
		d.name[i] = ref()
	}
	var heapNeed uint64
	valueLens := make([]uint32, n)
	for i := range valueLens {
		valueLens[i] = uint32(dec.UpTo(math.MaxUint32))
		heapNeed += uint64(valueLens[i])
	}
	for i := 0; i < n; i++ {
		d.attrStart[i+1] = d.attrStart[i] + int32(dec.UpTo(uint64(na-int(d.attrStart[i]))))
	}
	if dec.Err() == nil && int(d.attrStart[n]) != na {
		return nil, fmt.Errorf("xmltree: nodes own %d attributes, want %d", d.attrStart[n], na)
	}
	for a := range d.attrName {
		d.attrName[a] = ref()
	}
	attrLens := make([]uint32, na)
	for a := range attrLens {
		attrLens[a] = uint32(dec.UpTo(math.MaxUint32))
		heapNeed += uint64(attrLens[a])
	}
	for i := 0; i < used && dec.Err() == nil; i++ {
		if d.names.intern(dec.Str()) != NameID(i) {
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
	for i, l := range valueLens {
		if l > 0 {
			d.value.Set(i, d.heap.put(blob[:l]))
			blob = blob[l:]
		}
	}
	for a, l := range attrLens {
		if l > 0 {
			d.attrValue.Set(a, d.heap.put(blob[:l]))
			blob = blob[l:]
		}
	}
	if err := d.deriveParents(); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// deriveParents fills parent and level from size in one pass over pre
// order: a node's parent is the innermost open node whose range holds
// it. A size that overruns its parent's range is an error.
func (d *Doc) deriveParents() error {
	n := d.NumNodes()
	if int(d.size[0]) != n-1 {
		return fmt.Errorf("xmltree: document size %d, want %d", d.size[0], n-1)
	}
	d.parent[0] = InvalidNode
	end := func(i NodeID) int { return int(i) + int(d.size[i]) }
	open := []NodeID{0} // the root's range holds every node, so it stays
	for i := NodeID(1); int(i) < n; i++ {
		for end(open[len(open)-1]) < int(i) {
			open = open[:len(open)-1]
		}
		p := open[len(open)-1]
		if end(i) > end(p) {
			return fmt.Errorf("xmltree: node %d (size %d) overruns parent %d", i, d.size[i], p)
		}
		d.parent[i] = p
		d.level[i] = d.level[p] + 1
		open = append(open, i)
	}
	return nil
}
