package core

// Copy-on-write drafts. A committing writer never mutates the published
// Snapshot: it drafts a private clone, applies the change to the draft,
// and publishes the draft with one atomic store (see update.go).
//
// A draft clones every column, and every clone is cheap. All
// per-position state — the document's columns, the stable-id maps, each
// family's state — lives in persistent chunked columns (internal/pcol):
// a clone shares the spine until its first write copies it, and a write
// copies the one chunk it lands in. Every B+tree clones in O(1) and
// path-copies the nodes a write touches. A text or attribute commit thus
// copies the chunks and tree paths of the postings it changes and their
// ancestors. A structural commit rewrites every column from its edit
// point on: O(chunk + depth) at the document's tail, O(N − at) in the
// middle, as pre ranks, parents and attribute starts are absolute.
func (s *Snapshot) draft() *Snapshot {
	d := *s
	d.version = s.version + 1
	d.doc = s.doc.Clone()
	d.stableOf, d.preOf = s.stableOf.Clone(), s.preOf.Clone()
	d.attrStableOf, d.attrOf = s.attrStableOf.Clone(), s.attrOf.Clone()
	d.blockStarts = s.blockStarts.Clone()
	d.fams = make([]family, len(s.fams))
	for i, f := range s.fams {
		d.fams[i] = f.draft()
	}
	return &d
}

// clone copies a keyStats so draft-side maintenance (noteInsert,
// noteDelete, churn-triggered rebuilds) leaves the published version's
// estimates untouched.
func (ks *keyStats) clone() *keyStats {
	if ks == nil {
		return nil
	}
	c := *ks
	c.bounds = append([]uint64(nil), ks.bounds...)
	c.counts = append([]int(nil), ks.counts...)
	return &c
}
