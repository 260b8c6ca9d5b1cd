package xmlvi_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	xmlvi "repro"
)

// TestApplyChangeRejectsOverflowingFields: a shipped record whose node
// id or child position overflows its type must be rejected whole — the
// version and the document stay as they were — rather than truncated
// into a record that names another node or position.
func TestApplyChangeRejectsOverflowingFields(t *testing.T) {
	const xml = `<r k="v"><a>1</a><b>2</b></r>`
	d := mustParse(t, xml)
	if d.Kind(3) != xmlvi.KindText {
		t.Fatalf("node 3 is a %v, want the text node of <a>", d.Kind(3))
	}

	// Capture a real insert record from a scratch copy, to re-aim its
	// position field.
	src := mustParse(t, xml)
	var insert []byte
	src.OnCommit(func(c xmlvi.Change) { insert = c.Payload })
	if _, err := src.InsertXML(1, 0, `<x/>`); err != nil {
		t.Fatal(err)
	}
	parent, n1 := binary.Uvarint(insert)
	_, n2 := binary.Uvarint(insert[n1:])
	frag := insert[n1+n2:]

	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	cases := []struct {
		name    string
		kind    xmlvi.ChangeKind
		payload []byte
	}{
		// Truncated to int32 this would name node 3, the text of <a>.
		{"text node 1<<32|3", xmlvi.ChangeTexts, append(uv(1, 1<<32|3, 1), 'x')},
		{"attr 1<<32", xmlvi.ChangeAttr, append(uv(1<<32, 1), 'x')},
		{"delete 1<<32|2", xmlvi.ChangeDelete, uv(1<<32 | 2)},
		// Converted to int this would be negative, i.e. "insert first".
		{"insert pos 1<<63", xmlvi.ChangeInsert, append(uv(parent, 1<<63), frag...)},
	}
	before, err := d.XML()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		err := d.ApplyChange(xmlvi.Change{Version: d.Version() + 1, Kind: tc.kind, Ops: 1, Payload: tc.payload})
		if err == nil {
			t.Errorf("%s: applied without error", tc.name)
		}
		if d.Version() != 1 {
			t.Fatalf("%s: version moved to %d", tc.name, d.Version())
		}
		after, err := d.XML()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, before) {
			t.Fatalf("%s: document changed to %s", tc.name, after)
		}
	}
}
