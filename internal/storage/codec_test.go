package storage

import (
	"bytes"
	"math"
	"testing"
)

func TestCodecRoundTrip(t *testing.T) {
	e := NewBufEncoder(nil)
	e.Uv(0)
	e.Uv(math.MaxUint64)
	e.Str("value")
	e.U32s([]uint32{7, math.MaxUint32})
	e.Raw([]byte{1, 2})
	b, err := e.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(bytes.NewReader(b))
	if v := d.Uv(); v != 0 {
		t.Errorf("Uv = %d, want 0", v)
	}
	if v := d.Uv(); v != math.MaxUint64 {
		t.Errorf("Uv = %d, want MaxUint64", v)
	}
	if s := d.Str(); s != "value" {
		t.Errorf("Str = %q", s)
	}
	if s := d.U32s(2); len(s) != 2 || s[0] != 7 || s[1] != math.MaxUint32 {
		t.Errorf("U32s = %v", s)
	}
	if r := d.Raw(2); !bytes.Equal(r, []byte{1, 2}) {
		t.Errorf("Raw = %v", r)
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
}

// TestDecoderRejects: every value has one encoding, and no length the
// bytes left cannot hold is allocated.
func TestDecoderRejects(t *testing.T) {
	uv := func(d *Decoder) { d.Uv() }
	for _, tc := range []struct {
		name  string
		input []byte
		read  func(*Decoder)
	}{
		{"overlong zero", []byte{0x80, 0x00}, uv},
		{"overlong one", []byte{0x81, 0x80, 0x00}, uv},
		{"past 64 bits", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, uv},
		{"eleven bytes", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x81, 0x00}, uv},
		{"truncated", []byte{0x80}, uv},
		{"count past bytes", []byte{0x05, 1, 2, 3, 4}, func(d *Decoder) { d.Count(1) }},
		{"string past bytes", []byte{0x80, 0x80, 0x80, 0x80, 0x01}, func(d *Decoder) { d.Str() }},
		{"field past max", []byte{0x06}, func(d *Decoder) { d.UpTo(5) }},
		{"wrong slice count", []byte{0x01, 0x07}, func(d *Decoder) { d.U32s(2) }},
	} {
		d := NewDecoder(bytes.NewReader(tc.input))
		tc.read(d)
		if d.Err() == nil {
			t.Errorf("%s: %x decoded without error", tc.name, tc.input)
		}
	}
}
