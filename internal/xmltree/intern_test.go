package xmltree

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// buildRepetitive builds a document whose values repeat heavily, the
// shape interning exists for.
func buildRepetitive(t *testing.T, groups, perGroup int) *Doc {
	t.Helper()
	b := NewBuilder()
	b.StartElement("root")
	for g := 0; g < groups; g++ {
		for i := 0; i < perGroup; i++ {
			b.StartElement("item")
			b.Attribute("cat", fmt.Sprintf("category-%d", g%5))
			b.Text(fmt.Sprintf("common value %d", g%7))
			b.EndElement()
		}
	}
	b.EndElement()
	d, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestInternDeduplicatesHeap(t *testing.T) {
	d := buildRepetitive(t, 100, 10)
	// 1000 items but only 7 distinct texts and 5 distinct attr values:
	// the heap must hold far less than one copy per node.
	distinct := 0
	for g := 0; g < 7; g++ {
		distinct += len(fmt.Sprintf("common value %d", g))
	}
	for g := 0; g < 5; g++ {
		distinct += len(fmt.Sprintf("category-%d", g))
	}
	if got := d.HeapBytes(); got != distinct {
		t.Fatalf("heap holds %d bytes, want %d (one copy per distinct value)", got, distinct)
	}
	// Values still read back correctly.
	for i := 0; i < d.NumNodes(); i++ {
		n := NodeID(i)
		if d.Kind(n) == Text && d.Value(n) == "" {
			t.Fatalf("node %d lost its value", i)
		}
	}
}

func TestInternValuesAboveLimitNotInterned(t *testing.T) {
	long := make([]byte, maxInternLen+1)
	for i := range long {
		long[i] = 'x'
	}
	b := NewBuilder()
	b.StartElement("root")
	b.TextBytes(long)
	b.TextBytes(long)
	b.EndElement()
	d, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got := d.HeapBytes(); got != 2*len(long) {
		t.Fatalf("heap holds %d bytes, want %d (long values stored per occurrence)", got, 2*len(long))
	}
}

// TestCompactOnTextDraftLeavesPublishedIntact pins the cow.go contract
// the auto-compaction path relies on: a Clone draft shares its value
// chunks with the published doc, and Compact on the draft must not
// disturb the published doc's view.
func TestCompactOnTextDraftLeavesPublishedIntact(t *testing.T) {
	published := buildRepetitive(t, 10, 5)
	wantVals := snapshotValues(published)

	draft := published.Clone()
	var textNode NodeID = -1
	for i := 0; i < draft.NumNodes(); i++ {
		if draft.Kind(NodeID(i)) == Text {
			textNode = NodeID(i)
			break
		}
	}
	for i := 0; i < 50; i++ {
		if err := draft.SetText(textNode, fmt.Sprintf("generation %d of a long enough replacement value", i)); err != nil {
			t.Fatal(err)
		}
	}
	if draft.DeadHeapBytes() == 0 {
		t.Fatal("update storm produced no dead bytes")
	}
	reclaimed := draft.Compact()
	if reclaimed <= 0 {
		t.Fatalf("Compact reclaimed %d bytes", reclaimed)
	}
	if draft.DeadHeapBytes() != 0 {
		t.Fatalf("dead counter %d after Compact, want 0", draft.DeadHeapBytes())
	}
	if got := draft.Value(textNode); got != "generation 49 of a long enough replacement value" {
		t.Fatalf("draft lost its update: %q", got)
	}
	if diff := diffValues(published, wantVals); diff != "" {
		t.Fatalf("published doc changed under draft Compact: %s", diff)
	}
	if err := draft.Validate(); err != nil {
		t.Fatal(err)
	}
}

func snapshotValues(d *Doc) []string {
	var out []string
	for i := 0; i < d.NumNodes(); i++ {
		out = append(out, d.Value(NodeID(i)))
	}
	for a := 0; a < d.NumAttrs(); a++ {
		out = append(out, d.AttrValue(AttrID(a)))
	}
	return out
}

func diffValues(d *Doc, want []string) string {
	got := snapshotValues(d)
	if len(got) != len(want) {
		return fmt.Sprintf("%d values, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("value %d = %q, want %q", i, got[i], want[i])
		}
	}
	return ""
}

// TestStaleInternEntryHealed simulates an abandoned draft: its appends
// land in the shared intern map but its heap header is dropped, so the
// entries point past the surviving heap's length. The next put must not
// trust them.
func TestStaleInternEntryHealed(t *testing.T) {
	base := buildRepetitive(t, 2, 2)
	ghost := base.Clone()
	var textNode NodeID = -1
	for i := 0; i < ghost.NumNodes(); i++ {
		if ghost.Kind(NodeID(i)) == Text {
			textNode = NodeID(i)
			break
		}
	}
	if err := ghost.SetText(textNode, "phantom value never published"); err != nil {
		t.Fatal(err)
	}
	// ghost is abandoned; base's heap header never saw the append, but the
	// shared intern map did.
	draft := base.Clone()
	if err := draft.SetText(textNode, "phantom value never published"); err != nil {
		t.Fatal(err)
	}
	if got := draft.Value(textNode); got != "phantom value never published" {
		t.Fatalf("stale intern entry served garbage: %q", got)
	}
	if err := draft.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteToDropsDeadNames: delete-heavy histories shed dictionary
// garbage at serialisation time, and the round trip preserves every
// name and value.
func TestWriteToDropsDeadNames(t *testing.T) {
	b := NewBuilder()
	b.StartElement("keep")
	for i := 0; i < 50; i++ {
		b.StartElement(fmt.Sprintf("doomed-%d", i))
		b.Attribute(fmt.Sprintf("doomed-attr-%d", i), "v")
		b.Text("x")
		b.EndElement()
	}
	b.StartElement("survivor")
	b.Attribute("kept-attr", "v")
	b.Text("payload")
	b.EndElement()
	b.EndElement()
	d, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	before := d.names.count()
	// Delete all doomed subtrees (always the first child of <keep>).
	for i := 0; i < 50; i++ {
		if err := d.DeleteSubtree(d.FirstChild(d.FirstChild(0))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.names.count() != before {
		t.Fatalf("in-memory dictionary shrank from %d to %d without serialisation", before, d.names.count())
	}

	buf := encodeDoc(t, d)
	got, err := decodeDoc(buf)
	if err != nil {
		t.Fatal(err)
	}
	// Only live names survive: keep, survivor, kept-attr.
	if got.names.count() != 3 {
		t.Fatalf("reloaded dictionary has %d names, want 3: %v", got.names.count(), got.names.names)
	}
	if got.NumNodes() != d.NumNodes() || got.NumAttrs() != d.NumAttrs() {
		t.Fatalf("round trip changed shape: %d/%d nodes, want %d/%d", got.NumNodes(), got.NumAttrs(), d.NumNodes(), d.NumAttrs())
	}
	for i := 0; i < d.NumNodes(); i++ {
		n := NodeID(i)
		if got.Name(n) != d.Name(n) {
			t.Fatalf("node %d name %q, want %q", i, got.Name(n), d.Name(n))
		}
		if got.Value(n) != d.Value(n) {
			t.Fatalf("node %d value %q, want %q", i, got.Value(n), d.Value(n))
		}
	}
	for a := 0; a < d.NumAttrs(); a++ {
		if got.AttrName(AttrID(a)) != d.AttrName(AttrID(a)) || got.AttrValue(AttrID(a)) != d.AttrValue(AttrID(a)) {
			t.Fatalf("attr %d mismatch after round trip", a)
		}
	}
	// Serialising twice must be byte-stable (determinism matters for
	// leader/follower snapshot comparisons).
	if !bytes.Equal(buf, encodeDoc(t, d)) {
		t.Fatal("Encode is not deterministic")
	}
}

// TestReadDocInternsValues: a serialised document (whose heap blob holds
// one copy per value) reloads into a hash-consed heap.
func TestReadDocInternsValues(t *testing.T) {
	d := buildRepetitive(t, 100, 10)
	buf := encodeDoc(t, d)
	got, err := decodeDoc(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.HeapBytes() != d.HeapBytes() {
		t.Fatalf("reloaded heap %d bytes, built heap %d: load lost deduplication", got.HeapBytes(), d.HeapBytes())
	}
	if diff := diffValues(got, snapshotValues(d)); diff != "" {
		t.Fatalf("round trip changed values: %s", diff)
	}
}

// TestCompactAfterUpdateStormRandomised: a randomised update storm with
// periodic compaction keeps every value readable and the heap bounded.
func TestCompactAfterUpdateStormRandomised(t *testing.T) {
	d := buildRepetitive(t, 30, 4)
	r := rand.New(rand.NewSource(11))
	var textNodes []NodeID
	for i := 0; i < d.NumNodes(); i++ {
		if d.Kind(NodeID(i)) == Text {
			textNodes = append(textNodes, NodeID(i))
		}
	}
	want := map[NodeID]string{}
	for _, n := range textNodes {
		want[n] = d.Value(n)
	}
	for round := 0; round < 20; round++ {
		for i := 0; i < 100; i++ {
			n := textNodes[r.Intn(len(textNodes))]
			v := fmt.Sprintf("round %d value %d", round, r.Intn(10))
			if err := d.SetText(n, v); err != nil {
				t.Fatal(err)
			}
			want[n] = v
		}
		if round%5 == 4 {
			d.Compact()
			if d.DeadHeapBytes() != 0 {
				t.Fatalf("dead bytes %d after Compact", d.DeadHeapBytes())
			}
		}
		for _, n := range textNodes {
			if d.Value(n) != want[n] {
				t.Fatalf("round %d: node %d = %q, want %q", round, n, d.Value(n), want[n])
			}
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}
