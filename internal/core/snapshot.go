package core

// Copy-on-write drafts. A committing writer never mutates the published
// Snapshot: it drafts a private clone, applies the change to the draft,
// and publishes the draft with one atomic store (see update.go).
//
// A draft clones every column, and every clone is cheap. The per-position
// state a commit writes — the doc's value and attrValue columns, each
// family's hash or typed state and the typed item tables — lives in
// persistent chunked columns (internal/pcol): cloning one copies its
// spine of chunk pointers, and a write copies the one chunk it lands in.
// Every family's B+tree clones in O(1) and path-copies the nodes a write
// touches. A text or attribute commit therefore copies the chunks and
// tree paths of the postings it changes and their ancestors, not the
// document. Structural commits (delete/insert) rewrite the flat
// structural columns and the stable-id maps into fresh slices as they
// splice them, and splice the chunked columns from the edit point on.
func (s *Snapshot) draft() *Snapshot {
	d := *s
	d.version = s.version + 1
	d.doc = s.doc.Clone()
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
