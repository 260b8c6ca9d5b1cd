package core

import "repro/internal/xmltree"

// Reads go through a pinned version: call Snapshot() once and issue every
// related read against it, so they all observe one published version.
// The three methods below are whole-version operations on the current
// snapshot, each a single atomic load.

// Doc returns the indexed document of the current version.
func (ix *Indexes) Doc() *xmltree.Doc { return ix.cur.Load().Doc() }

// Verify cross-checks every index invariant of the current version.
func (ix *Indexes) Verify() error { return ix.cur.Load().Verify() }

// Save writes the current version to a snapshot file at path.
func (ix *Indexes) Save(path string) error { return ix.cur.Load().Save(path) }
