package storage

import (
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
	dw := &sectionWriter{pf: w.pf}
	e := NewEncoder(dw)
	e.Uv(uint64(len(w.entries)))
	for _, de := range w.entries {
		e.Str(de.name)
		e.Uv(uint64(de.firstPage))
		e.Uv(uint64(de.length))
		e.Uv(uint64(de.crc))
	}
	if err := e.Flush(); err != nil {
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
	d := NewDecoder(sr)
	nEntries := d.Count(4) // an entry is at least four varints
	for i := 0; i < nEntries && d.Err() == nil; i++ {
		e := dirEntry{name: d.Str()}
		e.firstPage = int64(d.UpTo(1<<63 - 1))
		e.length = int64(d.UpTo(1<<63 - 1))
		e.crc = uint32(d.UpTo(1<<32 - 1))
		r.entries[e.name] = e
	}
	if err := d.Err(); err != nil {
		pf.Close()
		return nil, fmt.Errorf("%w: directory: %v", ErrCorrupt, err)
	}
	return r, nil
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
