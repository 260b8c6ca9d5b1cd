package xmltree

import (
	"bytes"
	"testing"

	"repro/internal/storage"
)

// FuzzReadDoc: ReadDoc never panics, and any input it accepts is a valid
// document whose encoding is exactly the bytes it read. The seed corpus
// under testdata/fuzz/FuzzReadDoc holds encodings of documents with
// attributes, comments, PIs and empty values.
func FuzzReadDoc(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		r := bytes.NewReader(b)
		d, err := ReadDoc(storage.NewDecoder(r))
		if err != nil {
			return
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("accepted document fails Validate: %v", err)
		}
		if read := b[:len(b)-r.Len()]; !bytes.Equal(encodeDoc(t, d), read) {
			t.Fatalf("accepted %x re-encodes to %x", read, encodeDoc(t, d))
		}
	})
}
