package core

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/xmlparse"
	"repro/internal/xmltree"
)

// TestChunkBoundarySplices drives structural commits whose edit points
// sit on the boundaries of the chunked columns (1024 positions a chunk):
// inserts at pre 1023, 1024 and 1025, a delete whose range spans pre
// 2048, and an insert and a delete in the middle of the document. Every
// version stays pinned. Afterwards each must serialise to the bytes it
// serialised to while it was current and pass Verify, and the final
// version must index exactly what a fresh parse and Build of its own
// serialisation indexes: the same trees, Stats and query answers.
func TestChunkBoundarySplices(t *testing.T) {
	var b strings.Builder
	b.WriteString("<r>")
	for i := range 600 {
		fmt.Fprintf(&b, `<g k="%d"><v a="%d.5">%d.25</v><w d="2001-0%d-1%d">x%d common</w></g>`, i, i, i, i%9+1, i%10, i)
	}
	b.WriteString("</r>")
	ix := Build(mustParseForTest(t, b.String()), DefaultOptions())
	ix.EnableSubstring()

	type pinned struct {
		s   *Snapshot
		xml []byte
	}
	var pins []pinned
	pin := func() {
		s := ix.Snapshot()
		xml, err := xmlparse.SerializeToBytes(s.Doc())
		if err != nil {
			t.Fatal(err)
		}
		pins = append(pins, pinned{s, xml})
	}
	// insertAt inserts a 5-node fragment with two attributes in front of
	// the node now at pre at, so that the fragment starts there.
	insertAt := func(at xmltree.NodeID, i int) {
		t.Helper()
		pin()
		doc := ix.Doc()
		parent, pos := doc.Parent(at), 0
		for c := doc.FirstChild(parent); c != at; c = doc.NextSibling(c) {
			pos++
		}
		frag := mustParseForTest(t, fmt.Sprintf(`<g k="new%d"><v a="%d">%d.75</v><w>z%d</w></g>`, i, i, i, i))
		got, err := ix.InsertChildren(parent, pos, frag)
		if err != nil {
			t.Fatal(err)
		}
		if got != at {
			t.Fatalf("fragment %d landed at pre %d, want %d", i, got, at)
		}
	}
	// groupOf returns the child of <r> whose subtree holds pre n.
	groupOf := func(n xmltree.NodeID) xmltree.NodeID {
		doc := ix.Doc()
		for doc.Parent(n) != 1 {
			n = doc.Parent(n)
		}
		return n
	}
	deleteSubtree := func(n xmltree.NodeID) {
		t.Helper()
		pin()
		if err := ix.DeleteSubtree(n); err != nil {
			t.Fatal(err)
		}
	}

	for i, at := range []xmltree.NodeID{1023, 1024, 1025} {
		insertAt(at, i)
	}
	if g := groupOf(2048); g >= 2048 || g+xmltree.NodeID(ix.Doc().Size(g)) < 2048 {
		t.Fatalf("the group holding pre 2048 spans [%d, %d], not the boundary", g, g+xmltree.NodeID(ix.Doc().Size(g)))
	} else {
		deleteSubtree(g)
	}
	mid := xmltree.NodeID(ix.Doc().NumNodes() / 2)
	insertAt(groupOf(mid), 3)
	deleteSubtree(groupOf(mid + 40))
	pin()

	for v, p := range pins {
		xml, err := xmlparse.SerializeToBytes(p.s.Doc())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(xml, p.xml) {
			t.Fatalf("version %d serialises differently after the later commits", v)
		}
		if err := p.s.Verify(); err != nil {
			t.Fatalf("version %d: %v", v, err)
		}
	}

	final := ix.Snapshot()
	freshIx := Build(mustParseForTest(t, string(pins[len(pins)-1].xml)), DefaultOptions())
	freshIx.EnableSubstring()
	fresh := freshIx.Snapshot()
	if got, want := final.Stats(), fresh.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Stats %+v, a fresh build of the same document %+v", got, want)
	}
	for i, f := range final.fams {
		if got, want := resolvedTree(final, f), resolvedTree(fresh, fresh.fams[i]); !slices.Equal(got, want) {
			t.Fatalf("%s tree: %d entries differ from a fresh build's %d", f.label(), len(got), len(want))
		}
	}
	for _, v := range []string{"12.25", "x300 common", "new3", "2001-05-14"} {
		assertSamePostings(t, fmt.Sprintf("LookupString(%q)", v), final.LookupString(v), fresh.LookupString(v))
	}
	assertSamePostings(t, "RangeDouble", rangeDouble(final, 100, 400, true, false), rangeDouble(fresh, 100, 400, true, false))
	assertSamePostings(t, "RangeDate", rangeDate(final, 11000, 11500), rangeDate(fresh, 11000, 11500))
	assertSamePostings(t, "Contains", final.Contains("mmon"), fresh.Contains("mmon"))
	assertSamePostings(t, "StartsWith", final.StartsWith("z"), fresh.StartsWith("z"))
	assertOracleEquivalent(t, final, rand.New(rand.NewSource(1)))
}

// resolvedEntry is a tree entry with its posting resolved to a position,
// which two builds of one document agree on whatever their stable ids.
type resolvedEntry struct {
	key uint64
	p   Posting
}

// resolvedTree lists f's tree entries resolved, sorted by key, then
// posting in document order.
func resolvedTree(s *Snapshot, f family) []resolvedEntry {
	var out []resolvedEntry
	f.postings().tree.Scan(func(key uint64, val uint32) bool {
		p, _ := s.resolve(val)
		out = append(out, resolvedEntry{key, p})
		return true
	})
	slices.SortFunc(out, func(a, b resolvedEntry) int {
		return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.p.pos(), b.p.pos()), cmp.Compare(a.p.side(), b.p.side()))
	})
	return out
}
