package core

import "slices"

// Copy-on-write drafts. A committing writer never mutates the published
// Snapshot: it clones exactly the state its operation writes — sharing
// the rest — applies the change to the private draft, and publishes the
// draft with one atomic store (see update.go). What a commit writes is
// its writeShape:
//
//   - text updates write the doc's value column and the node side of
//     every family;
//   - attribute updates write the doc's attrValue column and the
//     attribute side of every family;
//   - structural updates (delete/insert) splice every column and remint
//     stable ids, so they copy everything.
//
// Every family's B+tree and statistics are cloned for every shape — in
// O(1) for the tree: Insert/Delete on the draft path-copy the touched
// nodes and leave the published tree's node graph intact.
func (s *Snapshot) draft(w writeShape) *Snapshot {
	d := *s
	d.version = s.version + 1
	switch w {
	case writesNodes:
		d.doc = s.doc.CloneForText()
	case writesAttrs:
		d.doc = s.doc.CloneForAttr()
	default:
		d.doc = s.doc.CloneForStructure()
		d.stableOf = slices.Clone(s.stableOf)
		d.preOf = slices.Clone(s.preOf)
		d.attrStableOf = slices.Clone(s.attrStableOf)
		d.attrOf = slices.Clone(s.attrOf)
	}
	d.fams = make([]family, len(s.fams))
	for i, f := range s.fams {
		d.fams[i] = f.draft(w)
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
