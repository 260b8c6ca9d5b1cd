package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The varint codec every persisted byte goes through: the snapshot
// directory, every snapshot section and every log record payload. Values
// are uvarints, strings and byte runs are length-prefixed, and a decoder
// bounds every length it allocates for by the bytes it has left, because
// its input may come from the network (a follower's seed snapshot, a
// shipped log record).

// Encoder streams varints to a writer through a 64 KiB buffer. Built by
// NewBufEncoder it has no writer and only appends to its buffer, which
// Bytes then returns: log records are encoded that way.
type Encoder struct {
	w   io.Writer
	buf []byte
	err error
}

// NewEncoder returns an encoder that writes to w; call Flush at the end.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: w, buf: make([]byte, 0, 1<<16)}
}

// NewBufEncoder returns an encoder that appends to buf.
func NewBufEncoder(buf []byte) *Encoder { return &Encoder{buf: buf} }

// Uv writes one uvarint.
func (e *Encoder) Uv(v uint64) {
	if e.err != nil {
		return
	}
	e.buf = binary.AppendUvarint(e.buf, v)
	e.spill()
}

// Raw writes p as is.
func (e *Encoder) Raw(p []byte) {
	if e.err != nil {
		return
	}
	e.buf = append(e.buf, p...)
	e.spill()
}

// Str writes a uvarint length and the bytes of s.
func (e *Encoder) Str(s string) {
	e.Uv(uint64(len(s)))
	if e.err == nil {
		e.buf = append(e.buf, s...)
		e.spill()
	}
}

// U32s writes a uvarint count and then each value.
func (e *Encoder) U32s(s []uint32) {
	e.Uv(uint64(len(s)))
	for _, v := range s {
		e.Uv(uint64(v))
	}
}

// spill hands a full buffer to w (never when w is nil).
func (e *Encoder) spill() {
	if e.w != nil && len(e.buf) >= 1<<16-16 {
		_, e.err = e.w.Write(e.buf)
		e.buf = e.buf[:0]
	}
}

// Bytes returns what a NewBufEncoder encoder holds, or its first error.
func (e *Encoder) Bytes() ([]byte, error) { return e.buf, e.err }

// Flush writes out what is buffered and returns the first error.
func (e *Encoder) Flush() error {
	if e.err != nil {
		return e.err
	}
	if len(e.buf) > 0 && e.w != nil {
		_, e.err = e.w.Write(e.buf)
		e.buf = e.buf[:0]
	}
	return e.err
}

// SizedReader is a byte source that knows how many bytes it has left: a
// snapshot section (*SectionReader) or a log record's payload
// (*bytes.Reader).
type SizedReader interface {
	io.Reader
	io.ByteReader
	Len() int
}

// Decoder reads what an Encoder wrote. The first error sticks: later
// reads return zero values, and Err reports it.
type Decoder struct {
	r   SizedReader
	err error
}

// NewDecoder returns a decoder over r.
func NewDecoder(r SizedReader) *Decoder { return &Decoder{r: r} }

var errVarint = errors.New("storage: malformed uvarint")

// Uv reads one uvarint. An overlong encoding is an error, so every value
// has exactly one encoding and a decoded input re-encodes to its bytes.
func (d *Decoder) Uv() uint64 {
	if d.err != nil {
		return 0
	}
	var x uint64
	for s := uint(0); ; s += 7 {
		b, err := d.r.ReadByte()
		if err != nil {
			if s > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			d.err = err
			return 0
		}
		if b < 0x80 {
			if (s > 0 && b == 0) || (s == 63 && b > 1) {
				d.err = errVarint
				return 0
			}
			return x | uint64(b)<<s
		}
		if s == 63 {
			d.err = errVarint
			return 0
		}
		x |= uint64(b&0x7f) << s
	}
}

// UpTo reads a uvarint that must not exceed max, so a field decoded from
// untrusted bytes cannot wrap into a different (or negative) id.
func (d *Decoder) UpTo(max uint64) uint64 {
	v := d.Uv()
	if d.err == nil && v > max {
		d.err = fmt.Errorf("storage: field value %d exceeds %d", v, max)
	}
	return v
}

// Count reads the length of something about to be allocated. Each
// element takes at least minBytes of encoding, so a length the bytes left
// cannot hold is an error: crafted bytes fail instead of allocating what
// they name.
func (d *Decoder) Count(minBytes int) int {
	n := d.Uv()
	if left := d.r.Len(); d.err == nil && n > uint64(left/minBytes) {
		d.err = fmt.Errorf("storage: count %d does not fit in the %d bytes left", n, left)
		return 0
	}
	return int(n)
}

// Raw reads the next n bytes, which must all be left.
func (d *Decoder) Raw(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if left := d.r.Len(); n > uint64(left) {
		d.err = fmt.Errorf("storage: %d bytes wanted, %d left", n, left)
		return nil
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(d.r, b); err != nil {
		d.err = err
		return nil
	}
	return b
}

// Str reads a uvarint length and that many bytes.
func (d *Decoder) Str() string { return string(d.Raw(uint64(d.Count(1)))) }

// U32s reads a count, which must be want, and that many values.
func (d *Decoder) U32s(want int) []uint32 {
	if n := d.Count(1); d.err == nil && n != want {
		d.err = fmt.Errorf("storage: slice has %d entries, want %d", n, want)
	}
	if d.err != nil {
		return nil
	}
	out := make([]uint32, want)
	for i := range out {
		out[i] = uint32(d.UpTo(1<<32 - 1))
	}
	return out
}

// Err reports the first error.
func (d *Decoder) Err() error { return d.err }

// Fail records err unless an error is already recorded.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}
