package core

import (
	"strings"
	"testing"

	"repro/internal/fsm"
)

// TestVerifyReportsCorruptFamily corrupts one thing per family in a
// private draft and requires Verify — and, for leaf state, VerifyLeaves —
// to fail naming that family, while the published version stays valid.
// With two leaves corrupt, VerifyLeaves names the first at every
// Parallelism.
func TestVerifyReportsCorruptFamily(t *testing.T) {
	ix := Build(mustParseForTest(t, `<r><p a="12">4.5</p><q>2001-02-03</q>some note</r>`), DefaultOptions())
	ix.EnableSubstring()
	base := ix.Snapshot()
	leaf := textNodesOf(base.Doc())[0] // "4.5"
	cases := []struct {
		name, family string
		leafState    bool
		corrupt      func(d *Snapshot)
	}{
		{"leaf hash", "string", true, func(d *Snapshot) {
			col := &d.hashes().col[0]
			col.Set(int(leaf), col.At(int(leaf))+1)
		}},
		{"typed leaf elem", "double", true, func(d *Snapshot) {
			d.typedFor(TypeDouble).sides[0].elems.Set(int(leaf), fsm.Identity)
		}},
		{"gram posting", "substring", false, func(d *Snapshot) {
			g := d.grams()
			e, _ := g.tree.Min()
			g.tree.Delete(e.Key, e.Val)
		}},
		{"histogram count", "date", false, func(d *Snapshot) { d.typedFor(TypeDate).stats.counts[0]++ }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := base.draft()
			tc.corrupt(d)
			want := tc.family + " index"
			if err := d.Verify(); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Verify = %v, want an error naming %q", err, want)
			}
			err := d.VerifyLeaves()
			if tc.leafState && (err == nil || !strings.Contains(err.Error(), want)) {
				t.Fatalf("VerifyLeaves = %v, want an error naming %q", err, want)
			}
			if !tc.leafState && err != nil {
				t.Fatalf("VerifyLeaves = %v on intact leaf state", err)
			}
		})
	}

	// An early text leaf and the attribute, in two families and in
	// different posting ranges once VerifyLeaves runs sharded: every
	// worker count must report the leaf, as the serial walk does.
	d := base.draft()
	d.typedFor(TypeDouble).sides[0].elems.Set(int(leaf), fsm.Identity)
	attrs := &d.hashes().col[1]
	attrs.Set(0, attrs.At(0)+1)
	want := "double index: " + NodePosting(leaf).describe() + ":"
	for _, p := range []int{1, 4} {
		d.opts.Parallelism = p
		if err := d.VerifyLeaves(); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Parallelism=%d: VerifyLeaves = %v, want an error naming %q", p, err, want)
		}
	}
	if err := base.Verify(); err != nil {
		t.Fatalf("published version damaged by a draft: %v", err)
	}
}
