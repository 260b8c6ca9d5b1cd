package core

// MemStats reports the in-memory footprint of one snapshot version —
// the reader-hot state the compressed layout work (packed B+tree
// leaves, interned heap values) exists to shrink. All byte counts are
// measured at slice capacity, chunked columns by their spines and
// chunks, and the name dictionary's map by a fixed per-entry estimate;
// they are accounting numbers for tracking layout regressions, not
// allocator ground truth. Chunks and tree nodes shared with other
// versions count in full for each version.
type MemStats struct {
	// DocBytes is the document: columnar node/attribute tables, text
	// heap backing array, and name dictionary.
	DocBytes int `json:"doc_bytes"`
	// StringTreeBytes is the string hash B+tree (packed leaves).
	StringTreeBytes int `json:"string_tree_bytes"`
	// TypedTreeBytes sums the typed value B+trees.
	TypedTreeBytes int `json:"typed_tree_bytes"`
	// SubstrTreeBytes is the q-gram substring B+tree, 0 when disabled.
	SubstrTreeBytes int `json:"substr_tree_bytes,omitempty"`
	// SideBytes covers the per-version side tables: stable-id maps and
	// every family's state (hash columns, typed state columns, item
	// tables and the item arrays they hold).
	SideBytes int `json:"side_bytes"`
	// TotalBytes is the sum of the components above.
	TotalBytes int `json:"total_bytes"`

	// Nodes is the indexed population: tree nodes plus attributes (the
	// paper's "Total Nodes").
	Nodes int `json:"nodes"`
	// BytesPerNode is TotalBytes / Nodes — the tracked layout metric.
	BytesPerNode float64 `json:"bytes_per_node"`
}

// MemStats measures this version's in-memory footprint. It only reads
// immutable snapshot state, so it is safe on any pinned version while
// writers commit.
func (ix *Snapshot) MemStats() MemStats {
	var ms MemStats
	ms.DocBytes = ix.doc.MemBytes()

	ms.SideBytes = ix.stableOf.MemBytes() + ix.preOf.MemBytes() +
		ix.attrStableOf.MemBytes() + ix.attrOf.MemBytes() + partialBytes(&ix.blockStarts)
	for _, f := range ix.fams {
		f.addMem(&ms)
	}

	ms.TotalBytes = ms.DocBytes + ms.StringTreeBytes + ms.TypedTreeBytes +
		ms.SubstrTreeBytes + ms.SideBytes

	ms.Nodes = ix.doc.NumNodes() + ix.doc.NumAttrs()
	if ms.Nodes > 0 {
		ms.BytesPerNode = float64(ms.TotalBytes) / float64(ms.Nodes)
	}
	return ms
}
