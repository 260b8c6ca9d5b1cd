package xmltree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/pcol"
)

// Binary document format: fixed-width little-endian columns plus a text
// heap, mirroring how a column-store database (MonetDB-style BATs) lays
// out a shredded document — columns stay randomly accessible, so the
// section size is an honest stand-in for "database storage" in the
// paper's Figure 9 measurements.
//
//	magic "XTDOC2"
//	counts:      n, na, nNames  (u32 each)
//	kind[n]      u8
//	size[n]      u32
//	parentΔ[n-1] u32   (self - parent)
//	name[n]      i32
//	valueLen[n]  u32
//	attrStart[n+1] u32
//	attrName[na]   i32
//	attrValueLen[na] u32
//	names dictionary  (u32 len + bytes each)
//	heap: node values then attribute values, concatenated
//
// Values are re-packed on write, so heap garbage never hits the disk.
// Levels are recomputed from parents on load.
const docMagic = "XTDOC2"

// WriteTo serialises the document. It implements io.WriterTo.
//
// Only live names hit the disk: deletions drop nodes but never
// dictionary entries, so a long-lived document's dictionary accretes
// dead names. WriteTo remaps name ids densely over the names actually
// referenced by a node or attribute (in first-use order, which is
// deterministic, keeping leader/follower snapshot bytes identical), so
// serialisation is the point where the dictionary sheds its garbage.
func (d *Doc) WriteTo(w io.Writer) (int64, error) {
	remap := make([]NameID, d.names.count())
	for i := range remap {
		remap[i] = -1
	}
	live := make([]string, 0, d.names.count())
	mapName := func(id NameID) NameID {
		if id < 0 {
			return -1
		}
		if remap[id] < 0 {
			remap[id] = NameID(len(live))
			live = append(live, d.names.names[id])
		}
		return remap[id]
	}
	for i := range d.name {
		mapName(d.name[i])
	}
	for a := range d.attrName {
		mapName(d.attrName[a])
	}

	cw := &countWriter{w: w}
	bw := newBinWriter(cw)
	bw.raw([]byte(docMagic))
	n := d.NumNodes()
	na := d.NumAttrs()
	bw.u32(uint32(n))
	bw.u32(uint32(na))
	bw.u32(uint32(len(live)))

	for i := 0; i < n; i++ {
		bw.raw([]byte{byte(d.kind[i])})
	}
	for i := 0; i < n; i++ {
		bw.u32(uint32(d.size[i]))
	}
	for i := 1; i < n; i++ {
		bw.u32(uint32(int32(i) - int32(d.parent[i])))
	}
	for i := 0; i < n; i++ {
		bw.u32(uint32(mapName(d.name[i])))
	}
	for i := 0; i < n; i++ {
		bw.u32(d.value.At(i).len)
	}
	for i := 0; i <= n; i++ {
		bw.u32(uint32(d.attrStart[i]))
	}
	for a := 0; a < na; a++ {
		bw.u32(uint32(mapName(d.attrName[a])))
	}
	for a := 0; a < na; a++ {
		bw.u32(d.attrValue.At(a).len)
	}
	for _, s := range live {
		bw.u32(uint32(len(s)))
		bw.raw([]byte(s))
	}
	for i := 0; i < n; i++ {
		bw.raw(d.heap.getBytes(d.value.At(i)))
	}
	for a := 0; a < na; a++ {
		bw.raw(d.heap.getBytes(d.attrValue.At(a)))
	}
	return cw.n, bw.flush()
}

// ReadDoc deserialises a document written by WriteTo and validates its
// structural invariants.
func ReadDoc(r io.Reader) (*Doc, error) {
	br := newBinReader(r)
	magic := make([]byte, len(docMagic))
	br.raw(magic)
	if br.err == nil && string(magic) != docMagic {
		return nil, errors.New("xmltree: bad document magic")
	}
	n := int(br.u32())
	na := int(br.u32())
	nNames := int(br.u32())
	if br.err != nil {
		return nil, br.err
	}
	// The names dictionary may legitimately exceed the node count:
	// deletions drop nodes but never dictionary entries, so a document
	// that shrank keeps its interned names. Bound it independently.
	if n <= 0 || n > 1<<31-2 || na < 0 || na > 1<<31-2 || nNames < 0 || nNames > 1<<28 {
		return nil, fmt.Errorf("xmltree: implausible counts %d/%d/%d", n, na, nNames)
	}
	d := &Doc{
		kind:      make([]Kind, n),
		size:      make([]int32, n),
		level:     make([]int32, n),
		parent:    make([]NodeID, n),
		name:      make([]NameID, n),
		value:     pcol.NewDense[valueRef](n),
		attrStart: make([]int32, n+1),
		attrName:  make([]NameID, na),
		attrValue: pcol.NewDense[valueRef](na),
		names:     newNameDict(),
		heap:      newTextHeap(),
	}
	kinds := make([]byte, n)
	br.raw(kinds)
	for i := range kinds {
		d.kind[i] = Kind(kinds[i])
	}
	for i := 0; i < n; i++ {
		d.size[i] = int32(br.u32())
	}
	d.parent[0] = InvalidNode
	for i := 1; i < n; i++ {
		d.parent[i] = NodeID(int32(i) - int32(br.u32()))
	}
	for i := 0; i < n; i++ {
		d.name[i] = NameID(br.u32())
	}
	valueLens := make([]uint32, n)
	var heapNeed uint64
	for i := 0; i < n; i++ {
		valueLens[i] = br.u32()
		heapNeed += uint64(valueLens[i])
	}
	for i := 0; i <= n; i++ {
		d.attrStart[i] = int32(br.u32())
	}
	for a := 0; a < na; a++ {
		d.attrName[a] = NameID(br.u32())
	}
	attrLens := make([]uint32, na)
	for a := 0; a < na; a++ {
		attrLens[a] = br.u32()
		heapNeed += uint64(attrLens[a])
	}
	if br.err != nil {
		return nil, br.err
	}
	if heapNeed > 1<<40 {
		return nil, errors.New("xmltree: implausible heap size")
	}
	for i := 0; i < nNames && br.err == nil; i++ {
		l := br.u32()
		if l > 1<<20 {
			return nil, errors.New("xmltree: implausible name length")
		}
		b := make([]byte, l)
		br.raw(b)
		d.names.intern(string(b))
	}
	// Heap: one contiguous read of the serialised (per-value, duplicated)
	// blob, then re-intern each value into the document heap — repeated
	// values collapse onto one stored copy, so a loaded document gets the
	// same hash-consed layout a built one has.
	blob := make([]byte, heapNeed)
	br.raw(blob)
	if br.err != nil {
		return nil, br.err
	}
	off := uint32(0)
	for i := 0; i < n; i++ {
		if valueLens[i] > 0 {
			d.value.Set(i, d.heap.put(blob[off:off+valueLens[i]]))
			off += valueLens[i]
		}
	}
	for a := 0; a < na; a++ {
		if attrLens[a] > 0 {
			d.attrValue.Set(a, d.heap.put(blob[off:off+attrLens[a]]))
			off += attrLens[a]
		}
	}
	// Levels derive from parents.
	for i := 1; i < n; i++ {
		p := d.parent[i]
		if p < 0 || p >= NodeID(i) {
			return nil, fmt.Errorf("xmltree: bad parent %d of node %d", p, i)
		}
		d.level[i] = d.level[p] + 1
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// --- buffered fixed-width stream helpers (shared with the storage layer) ---

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

type binWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func newBinWriter(w io.Writer) *binWriter {
	return &binWriter{w: w, buf: make([]byte, 0, 1<<16)}
}

func (b *binWriter) flushIfFull() {
	if len(b.buf) >= 1<<16-64 {
		_ = b.flush()
	}
}

func (b *binWriter) flush() error {
	if b.err != nil {
		return b.err
	}
	if len(b.buf) > 0 {
		_, b.err = b.w.Write(b.buf)
		b.buf = b.buf[:0]
	}
	return b.err
}

func (b *binWriter) raw(p []byte) {
	if b.err != nil {
		return
	}
	if len(p) >= 1<<15 {
		_ = b.flush()
		if b.err == nil {
			_, b.err = b.w.Write(p)
		}
		return
	}
	b.buf = append(b.buf, p...)
	b.flushIfFull()
}

func (b *binWriter) u32(v uint32) {
	if b.err != nil {
		return
	}
	b.buf = binary.LittleEndian.AppendUint32(b.buf, v)
	b.flushIfFull()
}

type binReader struct {
	rr  io.Reader
	buf [4]byte
	err error
}

func newBinReader(r io.Reader) *binReader { return &binReader{rr: r} }

func (b *binReader) u32() uint32 {
	if b.err != nil {
		return 0
	}
	if _, err := io.ReadFull(b.rr, b.buf[:4]); err != nil {
		b.err = err
		return 0
	}
	return binary.LittleEndian.Uint32(b.buf[:4])
}

func (b *binReader) raw(p []byte) {
	if b.err != nil {
		return
	}
	if _, err := io.ReadFull(b.rr, p); err != nil {
		b.err = err
	}
}
