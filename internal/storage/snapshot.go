package storage

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

// Snapshot writing: named sections appended to a PageFile, finalised with
// a directory section and the header.

// dirEntry describes one stored section.
type dirEntry struct {
	name      string
	firstPage int64
	length    int64
	crc       uint32
}

// Writer assembles a snapshot file section by section.
type Writer struct {
	pf      *PageFile
	entries []dirEntry
	cur     *sectionWriter
	curName string
	closed  bool
}

// NewWriter creates a snapshot file at path.
func NewWriter(path string) (*Writer, error) {
	pf, err := CreatePageFile(path)
	if err != nil {
		return nil, err
	}
	return &Writer{pf: pf}, nil
}

// Section starts a new named section and returns its writer. The previous
// section, if any, is finished first. Section names must be unique.
func (w *Writer) Section(name string) (io.Writer, error) {
	if w.closed {
		return nil, fmt.Errorf("storage: writer closed")
	}
	if err := w.finishCurrent(); err != nil {
		return nil, err
	}
	for _, e := range w.entries {
		if e.name == name {
			return nil, fmt.Errorf("storage: duplicate section %q", name)
		}
	}
	w.cur = &sectionWriter{pf: w.pf}
	w.curName = name
	return w.cur, nil
}

func (w *Writer) finishCurrent() error {
	if w.cur == nil {
		return nil
	}
	if err := w.cur.finish(); err != nil {
		return err
	}
	w.entries = append(w.entries, dirEntry{
		name:      w.curName,
		firstPage: w.cur.firstPage,
		length:    w.cur.length,
		crc:       w.cur.crc,
	})
	w.cur = nil
	return nil
}

// Close finishes the last section, writes the directory and header, and
// closes the file.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.finishCurrent(); err != nil {
		w.pf.Close()
		return err
	}
	// Serialise the directory.
	var dir []byte
	var tmp [binary.MaxVarintLen64]byte
	putUv := func(v uint64) { n := binary.PutUvarint(tmp[:], v); dir = append(dir, tmp[:n]...) }
	putUv(uint64(len(w.entries)))
	for _, e := range w.entries {
		putUv(uint64(len(e.name)))
		dir = append(dir, e.name...)
		putUv(uint64(e.firstPage))
		putUv(uint64(e.length))
		putUv(uint64(e.crc))
	}
	dw := &sectionWriter{pf: w.pf}
	if _, err := dw.Write(dir); err != nil {
		w.pf.Close()
		return err
	}
	if err := dw.finish(); err != nil {
		w.pf.Close()
		return err
	}
	if err := w.pf.WriteHeader(dw.firstPage); err != nil {
		w.pf.Close()
		return err
	}
	return w.pf.Close()
}

// Reader opens snapshot files for verified section access.
type Reader struct {
	pf      *PageFile
	entries map[string]dirEntry
	dirLen  int64
}

// OpenReader opens a snapshot file, verifying header and directory.
func OpenReader(path string) (*Reader, error) {
	pf, dirPage, err := OpenPageFile(path)
	if err != nil {
		return nil, err
	}
	r := &Reader{pf: pf, entries: make(map[string]dirEntry)}
	// The directory extends from dirPage to the end of the file; its byte
	// length is bounded by the remaining pages, and entries are
	// self-delimiting.
	remain := (pf.NumPages() - dirPage) * pagePayload
	sr := &SectionReader{pf: pf, page: dirPage, remain: remain, want: 0}
	sr.want = sr.crc // directory has no independent CRC; page CRCs cover it
	br := &byteCounter{r: sr}
	nEntries, err := binary.ReadUvarint(br)
	if err != nil {
		pf.Close()
		return nil, fmt.Errorf("%w: directory: %v", ErrCorrupt, err)
	}
	for i := uint64(0); i < nEntries; i++ {
		nameLen, err := binary.ReadUvarint(br)
		if err != nil || nameLen > 4096 {
			pf.Close()
			return nil, fmt.Errorf("%w: directory entry", ErrCorrupt)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			pf.Close()
			return nil, fmt.Errorf("%w: directory entry name", ErrCorrupt)
		}
		first, err1 := binary.ReadUvarint(br)
		length, err2 := binary.ReadUvarint(br)
		crc, err3 := binary.ReadUvarint(br)
		if err1 != nil || err2 != nil || err3 != nil {
			pf.Close()
			return nil, fmt.Errorf("%w: directory entry fields", ErrCorrupt)
		}
		r.entries[string(name)] = dirEntry{
			name:      string(name),
			firstPage: int64(first),
			length:    int64(length),
			crc:       uint32(crc),
		}
	}
	return r, nil
}

type byteCounter struct {
	r   io.Reader
	one [1]byte
}

func (b *byteCounter) Read(p []byte) (int, error) { return b.r.Read(p) }

func (b *byteCounter) ReadByte() (byte, error) {
	if _, err := io.ReadFull(b.r, b.one[:]); err != nil {
		return 0, err
	}
	return b.one[0], nil
}

// Section returns a verified reader over the named section. The returned
// reader validates the whole-section CRC at EOF; it is a *SectionReader.
func (r *Reader) Section(name string) (io.Reader, error) {
	e, ok := r.entries[name]
	if !ok {
		return nil, fmt.Errorf("storage: no section %q", name)
	}
	return &SectionReader{pf: r.pf, page: e.firstPage, remain: e.length, want: e.crc}, nil
}

// SectionLen reports the byte length of a section, or -1 if absent. It
// backs the storage-size measurements of Figure 9.
func (r *Reader) SectionLen(name string) int64 {
	if e, ok := r.entries[name]; ok {
		return e.length
	}
	return -1
}

// Sections lists stored section names in sorted order.
func (r *Reader) Sections() []string {
	out := make([]string, 0, len(r.entries))
	for n := range r.entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Close closes the underlying file.
func (r *Reader) Close() error { return r.pf.Close() }
