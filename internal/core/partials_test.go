package core

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/fsm"
	"repro/internal/xmlparse"
	"repro/internal/xmltree"
)

// partialShapes is a document of block-boundary shapes: an element with
// 10,000 children; elements with B−1, B, B+1 and 2B children; mixed
// content whose blocks hold comments and PIs; and a numeric list whose
// double fold stays castable across blocks. The list opens with one digit
// run longer than B children, so its blocks' runs merge beyond 2^53,
// where a float64 merge depends on grouping.
func partialShapes() string {
	var b strings.Builder
	b.WriteString("<r><wide>")
	for i := 0; i < 10000; i++ {
		fmt.Fprintf(&b, "<c>w%d</c>", i%97)
	}
	b.WriteString("</wide>")
	for _, k := range []int{partialBlock - 1, partialBlock, partialBlock + 1, 2 * partialBlock} {
		fmt.Fprintf(&b, "<n%d>", k)
		for i := 0; i < k; i++ {
			fmt.Fprintf(&b, `<c k="%d">x%d</c>`, i, i)
		}
		fmt.Fprintf(&b, "</n%d>", k)
	}
	b.WriteString("<mixed>")
	for i := 0; i < 3*partialBlock; i++ {
		switch i % 4 {
		case 0:
			fmt.Fprintf(&b, "t%d", i)
		case 1:
			fmt.Fprintf(&b, "<!--c%d-->", i)
		case 2:
			fmt.Fprintf(&b, "<e>%d</e>", i)
		default:
			fmt.Fprintf(&b, "<?p %d?>", i)
		}
	}
	b.WriteString("</mixed><list>")
	for i := 0; i <= 2*partialBlock; i++ {
		switch {
		case i < partialBlock+partialBlock/4:
			b.WriteString("<v>1</v>")
		case i == 2*partialBlock-1, i == 2*partialBlock:
			b.WriteString("<v>1</v>")
		default:
			b.WriteString("<v/>")
		}
	}
	b.WriteString("</list></r>")
	return b.String()
}

// checkFullWalk requires every element's state, in every stateful
// family, to equal a plain left-to-right fold over all its children.
func checkFullWalk(s *Snapshot) error {
	for _, f := range s.fams {
		var err error
		switch f := f.(type) {
		case *hashFamily:
			err = fullWalkMismatch[uint32](s, f)
		case *typedFamily:
			err = fullWalkMismatch[fsm.Frag](s, f)
		}
		if err != nil {
			return fmt.Errorf("%s index: %w", f.label(), err)
		}
	}
	return nil
}

func fullWalkMismatch[S any](s *Snapshot, m monoid[S]) error {
	doc := s.doc
	for i := 0; i < doc.NumNodes(); i++ {
		n := xmltree.NodeID(i)
		if k := doc.Kind(n); k != xmltree.Element && k != xmltree.Document {
			continue
		}
		if want := foldRun(s, m, n, n+1, math.MaxInt); !m.equal(m.state(s, n), want) {
			return fmt.Errorf("node %d: state %v, a full walk gives %v", n, m.state(s, n), want)
		}
	}
	return nil
}

// firstText returns the first text node below n, or InvalidNode.
func firstText(doc *xmltree.Doc, n xmltree.NodeID) xmltree.NodeID {
	leaf := xmltree.InvalidNode
	doc.DescendantTexts(n, func(t xmltree.NodeID) bool { leaf = t; return false })
	return leaf
}

// wideElements lists the elements with more than partialBlock children.
func wideElements(doc *xmltree.Doc) []xmltree.NodeID {
	var out []xmltree.NodeID
	for i := 0; i < doc.NumNodes(); i++ {
		n := xmltree.NodeID(i)
		if k := doc.Kind(n); (k == xmltree.Element || k == xmltree.Document) && doc.NumChildren(n) > partialBlock {
			out = append(out, n)
		}
	}
	return out
}

// touchWide rewrites, in one commit, a text leaf under every wide
// element with its own value, so each wide element is refolded.
func touchWide(t *testing.T, ix *Indexes) {
	t.Helper()
	doc := ix.Doc()
	var batch []TextUpdate
	for _, n := range wideElements(doc) {
		if leaf := firstText(doc, n); leaf != xmltree.InvalidNode {
			batch = append(batch, TextUpdate{Node: leaf, Value: doc.Value(leaf)})
		}
	}
	if err := ix.UpdateTexts(batch); err != nil {
		t.Fatal(err)
	}
}

// TestPartialsEdgeShapes runs random text, attribute, insert and delete
// sequences, plus scripted deletes and inserts at block boundaries, over
// the block-boundary shapes and xmark1. After every step every element's
// state equals a full walk over its children in every family, Verify
// passes, which checks every partial against its block, and a saved and
// reloaded copy, whose states Load folds plainly, verifies too.
func TestPartialsEdgeShapes(t *testing.T) {
	xmark, err := datagen.Generate("xmark1", 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []shapeCase{{"block-shapes", partialShapes()}, {"xmark1", string(xmark)}} {
		t.Run(tc.name, func(t *testing.T) {
			ix := Build(mustParseForTest(t, tc.xml), DefaultOptions())
			step := func(what string, f func() error) {
				t.Helper()
				if err := f(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				s := ix.Snapshot()
				if err := checkFullWalk(s); err != nil {
					t.Fatalf("after %s: %v", what, err)
				}
				if err := s.Verify(); err != nil {
					t.Fatalf("after %s: %v", what, err)
				}
				// A reloaded snapshot derives every state by a plain fold;
				// its trees must agree with it.
				path := filepath.Join(t.TempDir(), "s.xvi")
				if err := s.Save(path); err != nil {
					t.Fatal(err)
				}
				loaded, err := Load(path)
				if err != nil {
					t.Fatalf("after %s: load: %v", what, err)
				}
				if err := loaded.Verify(); err != nil {
					t.Fatalf("after %s: reloaded: %v", what, err)
				}
			}
			touchWide(t, ix)
			if ix.Snapshot().blockStarts.Len() == 0 {
				t.Fatal("no partials recorded by a commit under the wide elements")
			}
			byName := func(name string) xmltree.NodeID {
				doc := ix.Doc()
				for i := 0; i < doc.NumNodes(); i++ {
					if doc.Kind(xmltree.NodeID(i)) == xmltree.Element && doc.Name(xmltree.NodeID(i)) == name {
						return xmltree.NodeID(i)
					}
				}
				return xmltree.InvalidNode
			}
			del := func(parent string, i int) {
				step(fmt.Sprintf("delete child %d of %s", i, parent), func() error {
					return ix.DeleteSubtree(ix.Doc().Children(byName(parent))[i])
				})
			}
			ins := func(parent string, pos int, frag string) {
				step(fmt.Sprintf("insert %s at %d under %s", frag, pos, parent), func() error {
					_, err := ix.InsertChildren(byName(parent), pos, mustParseForTest(t, frag))
					return err
				})
			}
			if tc.name == "block-shapes" {
				del("n65", partialBlock) // B+1 → B: the element stops being wide
				ins("n64", partialBlock, "<c>y</c>")
				ins("n63", 0, "<!--c--><c>z</c>")
				for i := 2*partialBlock - 1; i >= partialBlock; i-- {
					del("n128", i) // empties the second block
				}
				ins("list", partialBlock, "<v/>")
				touchWide(t, ix)
				del("list", partialBlock+1)
				// A wide element inserted, refolded and then deleted leaves
				// no partials behind.
				ins("r", 0, "<big>"+strings.Repeat("<c>b</c>", 2*partialBlock)+"</big>")
				step("text update under big", func() error {
					return ix.UpdateText(firstText(ix.Doc(), byName("big")), "c")
				})
				del("r", 0)
			}

			rng := rand.New(rand.NewSource(1))
			values := []string{"", "1", "4.5", "x", "2001-02-03", " 7 "}
			wide := func() xmltree.NodeID {
				ws := wideElements(ix.Doc())
				return ws[rng.Intn(len(ws))]
			}
			for i := 0; i < 60; i++ {
				doc := ix.Doc()
				switch pick := rng.Intn(100); {
				case pick < 50:
					var batch []TextUpdate
					for range 1 + rng.Intn(4) {
						w := wide()
						leaf := xmltree.NodeID(int(w) + 1 + rng.Intn(int(doc.Size(w))))
						for leaf <= w+xmltree.NodeID(doc.Size(w)) && !isLeafKind(doc.Kind(leaf)) {
							leaf++
						}
						if leaf > w+xmltree.NodeID(doc.Size(w)) {
							continue
						}
						v := values[rng.Intn(len(values))]
						if list := byName("list"); list != xmltree.InvalidNode && doc.IsAncestorOf(list, leaf) {
							v = []string{"", "1", "1", "x"}[rng.Intn(4)]
						}
						batch = append(batch, TextUpdate{Node: leaf, Value: v})
					}
					if len(batch) == 0 {
						continue
					}
					step("text update", func() error { return ix.UpdateTexts(batch) })
				case pick < 60:
					a := xmltree.AttrID(rng.Intn(doc.NumAttrs()))
					step("attribute update", func() error { return ix.UpdateAttr(a, values[rng.Intn(len(values))]) })
				case pick < 80:
					w := wide()
					k := doc.NumChildren(w)
					pos := []int{0, partialBlock - 1, partialBlock, partialBlock + 1, k, rng.Intn(k + 1)}[rng.Intn(6)]
					frag := []string{"<c>i</c>", "<!--ic--><c>j</c><?pi d?>", "<v/>"}[rng.Intn(3)]
					step(fmt.Sprintf("insert at %d", pos), func() error {
						_, err := ix.InsertChildren(w, min(pos, k), mustParseForTest(t, frag))
						return err
					})
				default:
					w := wide()
					c := doc.Children(w)[rng.Intn(doc.NumChildren(w))]
					step("delete", func() error { return ix.DeleteSubtree(c) })
				}
			}
		})
	}
}

// TestVerifyReportsCorruptPartial corrupts one block partial per
// stateful family, and the block starts they share, in a private draft
// and requires Verify to fail naming the family or the misplaced block,
// while the published version stays valid.
func TestVerifyReportsCorruptPartial(t *testing.T) {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 3*partialBlock; i++ {
		fmt.Fprintf(&b, "<v>x%d</v>", i)
	}
	b.WriteString("</r>")
	ix := Build(mustParseForTest(t, b.String()), DefaultOptions())
	touchWide(t, ix)
	base := ix.Snapshot()
	st := base.stableOf.At(1) // <r>
	cases := []struct {
		want    string
		corrupt func(d *Snapshot)
	}{
		{"string index: partials", func(d *Snapshot) {
			p := &d.hashes().parts
			states := slices.Clone(p.Get(st))
			states[1]++
			p.Set(st, states)
		}},
		{"double index: partials", func(d *Snapshot) {
			p := &d.typedFor(TypeDouble).parts
			states := slices.Clone(p.Get(st))
			states[2] = fsm.Frag{Elem: fsm.Identity}
			p.Set(st, states)
		}},
		{"date index: partials", func(d *Snapshot) {
			p := &d.typedFor(TypeDate).parts
			p.Set(st, p.Get(st)[:2])
		}},
		{"string index: partials: node 1:", func(d *Snapshot) { d.blockStarts.Set(st, []int32{1, 3, 5}) }},
	}
	for _, tc := range cases {
		t.Run(tc.want, func(t *testing.T) {
			d := base.draft()
			tc.corrupt(d)
			if err := d.Verify(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Verify = %v, want an error naming %q", err, tc.want)
			}
		})
	}
	if err := base.Verify(); err != nil {
		t.Fatalf("published version damaged by a draft: %v", err)
	}
}

// TestPartialsMemoryAtScale4 counts the partials in MemStats.SideBytes
// and bounds them: once every wide element of xmark1 at scale 4 has been
// refolded, they add at most 0.5 % to BytesPerNode.
func TestPartialsMemoryAtScale4(t *testing.T) {
	raw, err := datagen.Generate("xmark1", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmlparse.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(doc, DefaultOptions())
	ix.EnableSubstring()
	before := ix.Snapshot().MemStats()
	touchWide(t, ix)
	s := ix.Snapshot()
	if got, want := s.blockStarts.Len(), len(wideElements(s.Doc())); got != want {
		t.Fatalf("%d elements have partials, want every one of the %d wide elements", got, want)
	}
	after := s.MemStats()
	added := float64(after.SideBytes-before.SideBytes) / float64(after.Nodes)
	t.Logf("partials add %.3f B/node to %.1f B/node (%.3f %%)", added, before.BytesPerNode, 100*added/before.BytesPerNode)
	if added <= 0 {
		t.Fatalf("SideBytes went %d → %d: the partials are not counted", before.SideBytes, after.SideBytes)
	}
	if added > 0.005*before.BytesPerNode {
		t.Fatalf("partials add %.3f B/node, more than 0.5 %% of %.1f", added, before.BytesPerNode)
	}
}
