// Package storage implements the simple persistence layer the indices and
// documents are measured against in the storage experiments (Figure 9,
// bottom): a page-structured file with per-page CRC32 checksums and a
// named-section snapshot format layered on top.
//
// Layout:
//
//	page 0:        header — magic, format version, page count, directory
//	               location, header CRC
//	pages 1..n-1:  payload — 8 KiB pages, each trailered with its CRC32
//
// Sections are byte streams chunked into consecutive pages; the directory
// (itself a section at the end of the file) maps section names to page
// extents, byte lengths, and whole-section CRCs. Every read path verifies
// checksums, so torn or corrupted files are detected instead of being
// half-loaded.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

const (
	// PageSize is the unit of allocation and checksumming.
	PageSize = 8192
	// pagePayload is the usable space per page after the CRC trailer.
	pagePayload = PageSize - 4

	magic         = "XVIDB001"
	headerPages   = 1
	formatVersion = 1
)

// ErrCorrupt reports checksum or structural failures in a stored file.
var ErrCorrupt = errors.New("storage: corrupt file")

// PageFile is an append-oriented paged file. Pages are written once and
// verified with CRC32 on read.
type PageFile struct {
	f        *os.File
	nPages   int64
	writable bool
	buf      [PageSize]byte
}

// CreatePageFile creates (truncating) a page file at path.
func CreatePageFile(path string) (*PageFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	pf := &PageFile{f: f, nPages: headerPages, writable: true}
	// Reserve the header; finalised by WriteHeader.
	if err := pf.f.Truncate(PageSize); err != nil {
		f.Close()
		return nil, err
	}
	return pf, nil
}

// OpenPageFile opens an existing page file and verifies its header.
func OpenPageFile(path string) (*PageFile, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	pf := &PageFile{f: f}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	if st.Size()%PageSize != 0 || st.Size() < PageSize {
		f.Close()
		return nil, 0, fmt.Errorf("%w: size %d not page aligned", ErrCorrupt, st.Size())
	}
	pf.nPages = st.Size() / PageSize
	dirPage, err := pf.readHeader()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return pf, dirPage, nil
}

// AppendPage writes one page of payload (at most pagePayload bytes) with
// its checksum and returns its page number.
func (pf *PageFile) AppendPage(payload []byte) (int64, error) {
	if len(payload) > pagePayload {
		return 0, fmt.Errorf("storage: payload %d exceeds page capacity", len(payload))
	}
	page := pf.nPages
	copy(pf.buf[:], payload)
	for i := len(payload); i < pagePayload; i++ {
		pf.buf[i] = 0
	}
	crc := crc32.ChecksumIEEE(pf.buf[:pagePayload])
	binary.LittleEndian.PutUint32(pf.buf[pagePayload:], crc)
	if _, err := pf.f.WriteAt(pf.buf[:], page*PageSize); err != nil {
		return 0, err
	}
	pf.nPages++
	return page, nil
}

// ReadPage reads and checksum-verifies page number p into a fresh buffer
// of pagePayload bytes.
func (pf *PageFile) ReadPage(p int64, dst []byte) error {
	if p < 0 || p >= pf.nPages {
		return fmt.Errorf("%w: page %d out of range", ErrCorrupt, p)
	}
	var buf [PageSize]byte
	if _, err := pf.f.ReadAt(buf[:], p*PageSize); err != nil {
		return err
	}
	want := binary.LittleEndian.Uint32(buf[pagePayload:])
	if got := crc32.ChecksumIEEE(buf[:pagePayload]); got != want {
		return fmt.Errorf("%w: page %d checksum %#x, want %#x", ErrCorrupt, p, got, want)
	}
	copy(dst, buf[:pagePayload])
	return nil
}

// WriteHeader finalises the file: it records the directory page and page
// count in page 0.
func (pf *PageFile) WriteHeader(dirPage int64) error {
	var h [PageSize]byte
	copy(h[:], magic)
	binary.LittleEndian.PutUint32(h[8:], formatVersion)
	binary.LittleEndian.PutUint64(h[12:], uint64(pf.nPages))
	binary.LittleEndian.PutUint64(h[20:], uint64(dirPage))
	crc := crc32.ChecksumIEEE(h[:pagePayload])
	binary.LittleEndian.PutUint32(h[pagePayload:], crc)
	if _, err := pf.f.WriteAt(h[:], 0); err != nil {
		return err
	}
	return pf.f.Sync()
}

func (pf *PageFile) readHeader() (int64, error) {
	var h [PageSize]byte
	if _, err := pf.f.ReadAt(h[:], 0); err != nil {
		return 0, err
	}
	if string(h[:len(magic)]) != magic {
		return 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(h[8:]); v != formatVersion {
		return 0, fmt.Errorf("storage: unsupported format version %d", v)
	}
	want := binary.LittleEndian.Uint32(h[pagePayload:])
	if got := crc32.ChecksumIEEE(h[:pagePayload]); got != want {
		return 0, fmt.Errorf("%w: header checksum", ErrCorrupt)
	}
	nPages := int64(binary.LittleEndian.Uint64(h[12:]))
	if nPages != pf.nPages {
		return 0, fmt.Errorf("%w: header claims %d pages, file has %d", ErrCorrupt, nPages, pf.nPages)
	}
	return int64(binary.LittleEndian.Uint64(h[20:])), nil
}

// NumPages reports the current page count (including the header page).
func (pf *PageFile) NumPages() int64 { return pf.nPages }

// Close closes the underlying file. Writable files are fsynced first:
// WriteHeader syncs the header it writes, but pages appended after it
// (or a file closed without a header) would otherwise sit in OS caches
// with no durability guarantee when Close returns.
func (pf *PageFile) Close() error {
	if pf.writable {
		if err := pf.f.Sync(); err != nil {
			pf.f.Close()
			return err
		}
	}
	return pf.f.Close()
}

// Sync forces written pages to stable storage.
func (pf *PageFile) Sync() error { return pf.f.Sync() }

// sectionWriter streams bytes into consecutive pages of a PageFile.
type sectionWriter struct {
	pf        *PageFile
	buf       []byte
	firstPage int64
	length    int64
	crc       uint32
	started   bool
	err       error
}

func (sw *sectionWriter) Write(p []byte) (int, error) {
	if sw.err != nil {
		return 0, sw.err
	}
	sw.crc = crc32.Update(sw.crc, crc32.IEEETable, p)
	sw.length += int64(len(p))
	sw.buf = append(sw.buf, p...)
	for len(sw.buf) >= pagePayload {
		page, err := sw.pf.AppendPage(sw.buf[:pagePayload])
		if err != nil {
			sw.err = err
			return 0, err
		}
		if !sw.started {
			sw.firstPage = page
			sw.started = true
		}
		sw.buf = sw.buf[pagePayload:]
	}
	return len(p), nil
}

func (sw *sectionWriter) finish() error {
	if sw.err != nil {
		return sw.err
	}
	if len(sw.buf) > 0 || !sw.started {
		page, err := sw.pf.AppendPage(sw.buf)
		if err != nil {
			sw.err = err
			return err
		}
		if !sw.started {
			sw.firstPage = page
			sw.started = true
		}
		sw.buf = nil
	}
	return nil
}

// SectionReader streams a section's bytes back out of its page extent.
// It knows how many bytes it has left, so a decoder can bound a length it
// reads against what the section can still hold.
type SectionReader struct {
	pf     *PageFile
	page   int64
	remain int64
	buf    []byte
	off    int
	crc    uint32
	want   uint32
	err    error
}

func (sr *SectionReader) Read(p []byte) (int, error) {
	if sr.err != nil {
		return 0, sr.err
	}
	if sr.remain == 0 && sr.off >= len(sr.buf) {
		if sr.crc != sr.want {
			sr.err = fmt.Errorf("%w: section checksum %#x, want %#x", ErrCorrupt, sr.crc, sr.want)
			return 0, sr.err
		}
		return 0, io.EOF
	}
	if sr.off >= len(sr.buf) {
		if sr.buf == nil {
			sr.buf = make([]byte, pagePayload)
		}
		if err := sr.pf.ReadPage(sr.page, sr.buf); err != nil {
			sr.err = err
			return 0, err
		}
		sr.page++
		n := int64(pagePayload)
		if n > sr.remain {
			n = sr.remain
		}
		sr.buf = sr.buf[:n]
		sr.remain -= n
		sr.off = 0
		sr.crc = crc32.Update(sr.crc, crc32.IEEETable, sr.buf)
	}
	n := copy(p, sr.buf[sr.off:])
	sr.off += n
	return n, nil
}

// Len returns the number of section bytes not yet read.
func (sr *SectionReader) Len() int { return int(sr.remain) + len(sr.buf) - sr.off }

func (sr *SectionReader) ReadByte() (byte, error) {
	if sr.off < len(sr.buf) {
		b := sr.buf[sr.off]
		sr.off++
		return b, nil
	}
	var one [1]byte
	for {
		n, err := sr.Read(one[:])
		if n == 1 {
			return one[0], nil
		}
		if err != nil {
			return 0, err
		}
	}
}
