package xmltree

// Copy-on-write document clones for the MVCC snapshot layer in
// internal/core. A published Doc is treated as immutable; a writer that
// wants to change it clones it and writes the clone.
//
// Clone costs O(1). Every per-position column is a persistent chunked
// column (internal/pcol) whose clone shares its spine and chunks: SetText
// or SetAttrValue copies the spine once and the one chunk it writes, and
// DeleteSubtree or InsertChildren copies every column's spine, the chunks
// from the edit point on and one chunk per ancestor whose size changes.
// The name dictionary is shared outright; InsertChildren copies it only
// when the fragment brings a name it lacks. Once cloned, a Doc must not
// be written again — its clone owns the right to write.
//
// The text heap is shared the same way without chunking: clones share
// the underlying byte array but own their own textHeap header. The heap
// is append-only, values published in version v live entirely below
// that version's heap length, and writers are serialized by the caller,
// so a later draft's appends land at offsets no published reader ever
// dereferences (or on a freshly reallocated array when the append grows
// the backing store).
//
// The intern table (heap.go) is shared across clones by pointer: it is
// written only by the single serialized writer and never read on read
// paths, so sharing is race-free. Entries can go stale — an abandoned
// draft's appends vanish with its heap header — which is why every hit
// is verified against the current heap bytes before being trusted.
//
// Compact allocates fresh value/attrValue columns and a fresh heap (it
// rewrites nothing in place), so the writer may compact any privately
// owned draft, but must never compact a Doc that has itself been
// published to concurrent readers.

// Clone returns a copy of d that shares all of d's storage and may be
// written — values, attributes or structure — while d stays unchanged.
func (d *Doc) Clone() *Doc {
	return &Doc{
		kind:      d.kind.Clone(),
		size:      d.size.Clone(),
		level:     d.level.Clone(),
		parent:    d.parent.Clone(),
		name:      d.name.Clone(),
		value:     d.value.Clone(),
		attrStart: d.attrStart.Clone(),
		attrName:  d.attrName.Clone(),
		attrValue: d.attrValue.Clone(),
		names:     d.names,
		heap:      d.heap.cloneHeader(),
	}
}

func (nd *nameDict) clone() *nameDict {
	byName := make(map[string]NameID, len(nd.byName))
	for k, v := range nd.byName {
		byName[k] = v
	}
	return &nameDict{byName: byName, names: append([]string(nil), nd.names...)}
}
