package xmltree

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/storage"
)

// encodeDoc returns d's document-section bytes.
func encodeDoc(t testing.TB, d *Doc) []byte {
	t.Helper()
	e := storage.NewBufEncoder(nil)
	d.Encode(e)
	b, err := e.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// decodeDoc reads a document section from b.
func decodeDoc(b []byte) (*Doc, error) {
	return ReadDoc(storage.NewDecoder(bytes.NewReader(b)))
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := buildPersonDoc(t)
	got, err := decodeDoc(encodeDoc(t, d))
	if err != nil {
		t.Fatal(err)
	}
	assertSameDoc(t, d, got)
}

func TestWriteReadRoundTripWithAttrsAndUpdates(t *testing.T) {
	b := NewBuilder()
	b.StartElement("r")
	b.StartElement("a")
	b.Attribute("k", "v1")
	b.Attribute("j", "v2")
	b.Text("text one")
	b.EndElement()
	b.Comment("a comment")
	b.PI("target", "pi data")
	b.StartElement("b")
	b.Text("text two")
	b.EndElement()
	b.EndElement()
	d, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// Garbage in the heap from updates must not be serialised.
	txt := d.FirstChild(NodeID(2))
	_ = txt
	if err := d.SetText(4, "replaced"); err == nil {
		// node 4 may or may not be text depending on layout; find one.
	}
	for i := 0; i < d.NumNodes(); i++ {
		if d.Kind(NodeID(i)) == Text {
			if err := d.SetText(NodeID(i), "updated "+strings.Repeat("x", 40)); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	got, err := decodeDoc(encodeDoc(t, d))
	if err != nil {
		t.Fatal(err)
	}
	assertSameDoc(t, d, got)
	// The re-read heap contains only live bytes.
	if got.HeapBytes() != got.LiveHeapBytes() {
		t.Errorf("reloaded heap %d != live %d", got.HeapBytes(), got.LiveHeapBytes())
	}
}

func TestReadDocRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("not a document"),
		{1},                            // truncated after the node count
		bytes.Repeat([]byte{0xFF}, 12), // absurd counts
	}
	for i, c := range cases {
		if _, err := decodeDoc(c); err == nil {
			t.Errorf("case %d: ReadDoc accepted garbage", i)
		}
	}
}

// TestReadDocRejectsSizeOverrun: parents derive from sizes, so a node
// whose subtree runs past its parent's range is an error of its own,
// found before Validate runs.
func TestReadDocRejectsSizeOverrun(t *testing.T) {
	// <r><e><e/></e></r> with the inner element's size 1 instead of 0.
	enc := []byte{
		4, 0, // nodes, attributes
		0, 1, 1, 1, // kinds: document, then elements
		3, 1, 1, 0, // sizes: node 2 reaches node 3, outside node 1
		0, 1, 1, 1, // name ids + 1
		0, 0, 0, 0, // value lengths
		0, 0, 0, 0, // attribute counts
		1, 'e', // the name dictionary
	}
	_, err := decodeDoc(enc)
	if err == nil || !strings.Contains(err.Error(), "overruns parent 1") {
		t.Fatalf("ReadDoc of an overrunning size: %v", err)
	}
}

func TestReadDocRejectsTruncation(t *testing.T) {
	full := encodeDoc(t, buildPersonDoc(t))
	for _, cut := range []int{10, len(full) / 2, len(full) - 1} {
		if _, err := decodeDoc(full[:cut]); err == nil {
			t.Errorf("ReadDoc accepted %d/%d-byte truncation", cut, len(full))
		}
	}
}

func TestRandomDocsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 25; trial++ {
		d := randomDoc(t, rng, 4, 4)
		got, err := decodeDoc(encodeDoc(t, d))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		assertSameDoc(t, d, got)
	}
}

func assertSameDoc(t *testing.T, a, b *Doc) {
	t.Helper()
	if err := b.Validate(); err != nil {
		t.Fatalf("reloaded doc invalid: %v", err)
	}
	if a.NumNodes() != b.NumNodes() || a.NumAttrs() != b.NumAttrs() {
		t.Fatalf("counts differ: %d/%d vs %d/%d", a.NumNodes(), a.NumAttrs(), b.NumNodes(), b.NumAttrs())
	}
	for i := 0; i < a.NumNodes(); i++ {
		n := NodeID(i)
		if a.Kind(n) != b.Kind(n) || a.Size(n) != b.Size(n) || a.Level(n) != b.Level(n) ||
			a.Parent(n) != b.Parent(n) || a.Name(n) != b.Name(n) || a.Value(n) != b.Value(n) {
			t.Fatalf("node %d differs", i)
		}
	}
	for x := 0; x < a.NumAttrs(); x++ {
		ad := AttrID(x)
		if a.AttrName(ad) != b.AttrName(ad) || a.AttrValue(ad) != b.AttrValue(ad) || a.AttrOwner(ad) != b.AttrOwner(ad) {
			t.Fatalf("attr %d differs", x)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	d := buildPersonDoc(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		encodeDoc(b, d)
	}
}

// TestRoundTripAfterRootDeletion: deleting the root element leaves a
// document whose interned-name dictionary is larger than its node
// count. The serial format must round-trip it (the old reader's
// plausibility bound nNames <= n+na+1 rejected it).
func TestRoundTripAfterRootDeletion(t *testing.T) {
	b := NewBuilder()
	b.StartElement("r")
	b.StartElement("a")
	b.Attribute("id", "1")
	b.Text("x")
	b.EndElement()
	b.StartElement("bee")
	b.EndElement()
	b.EndElement()
	d, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteSubtree(d.FirstChild(d.Root())); err != nil {
		t.Fatal(err)
	}
	if d.NumNodes() != 1 {
		t.Fatalf("doc has %d nodes after root deletion, want 1", d.NumNodes())
	}
	got, err := decodeDoc(encodeDoc(t, d))
	if err != nil {
		t.Fatalf("round-trip after root deletion: %v", err)
	}
	assertSameDoc(t, d, got)
}
