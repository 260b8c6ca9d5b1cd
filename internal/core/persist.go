package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/btree"
	"repro/internal/storage"
	"repro/internal/xmltree"
)

// Snapshot layout (format version 3). A snapshot holds the document, the
// stable-id maps, each index family's B+tree, the planner statistics, the
// version and the WAL generation. The per-node index state — hashes and
// FSM fragments — is not stored: it is a fold of the document (Figure 7),
// and Load recomputes it with the fold Build runs. SectionDoc vs the tree
// sections is what the storage-overhead experiment (Figure 9 bottom)
// compares. Typed trees live in one section per type, named by stable
// type ID and opening with that ID, so snapshots written with any
// registry subset load under any superset.
const (
	SectionMeta    = "meta"
	SectionDoc     = "doc"
	SectionStable  = "stable"
	SectionStrTree = "strtree"

	// SectionWALGen pairs a snapshot with a write-ahead log: it holds the
	// checkpoint generation the snapshot was written at. Only present in
	// snapshots written by Checkpoint; its absence means generation 0
	// (a snapshot that never had a WAL, or predates durability).
	SectionWALGen = "walgen"

	// SectionStats holds the planner statistics (distinct-key counts and
	// equi-depth histograms, see histogram.go). Optional: when it is
	// absent or fails its checks, the stats are rebuilt from the trees.
	SectionStats = "stats"

	// SectionSubstr holds the q-gram substring index tree (see substr.go).
	// Optional: presence means the index was enabled when the snapshot
	// was written, and loading restores it enabled; absence loads with
	// the index off. Its statistics are rebuilt on load.
	SectionSubstr = "substr"

	// SectionVersion holds the snapshot's publication sequence number
	// (Snapshot.Version), so commit-sequence tokens handed to network
	// clients stay valid across Save/Load and checkpoint/recovery: a
	// reloaded document continues the version sequence instead of
	// restarting at 1. Optional: absence means the loaded state starts
	// over at version 1.
	SectionVersion = "version"

	// snapshotVersion is the overall snapshot format: a typed-index
	// manifest in the meta section, then one tree section per family and
	// no per-node state. Load rejects every other version.
	snapshotVersion = 3

	// statsSectionVersion versions the planner-statistics payload; an
	// unknown version falls back to rebuilding from the trees rather
	// than failing the load (statistics are derived data).
	statsSectionVersion = 1
)

// TypedSectionName returns the snapshot section holding typed index id.
func TypedSectionName(id TypeID) string { return fmt.Sprintf("typed.%d", id) }

// Save writes the document and all built indices to a snapshot file at
// path (page-structured, checksummed; see the storage package). Snapshots
// are immutable once published, so Save needs no locking — it serialises
// exactly the version it was called on, even while later versions commit.
func (ix *Snapshot) Save(path string) error {
	return ix.saveFile(path, false, 0)
}

// saveFile writes a complete snapshot. withWALGen stamps walGen, the
// checkpoint generation, into the snapshot (checkpoints only — a plain
// Save deliberately produces a generation-0 snapshot that no existing
// log pairs with, because its records would double-apply on top of the
// freshly saved state).
func (ix *Snapshot) saveFile(path string, withWALGen bool, walGen uint64) error {
	w, err := storage.NewWriter(path)
	if err != nil {
		return err
	}
	if err := ix.save(w, withWALGen, walGen); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

func (ix *Snapshot) save(w *storage.Writer, withWALGen bool, walGen uint64) error {
	sec, err := w.Section(SectionMeta)
	if err != nil {
		return err
	}
	se := newSliceEncoder(sec)
	se.uv(snapshotVersion)
	if ix.opts.String {
		se.uv(1)
	} else {
		se.uv(0)
	}
	typed := ix.typedFams()
	se.uv(uint64(len(typed)))
	for _, t := range typed {
		se.uv(uint64(t.spec.ID))
	}
	if err := se.flush(); err != nil {
		return err
	}

	sec, err = w.Section(SectionDoc)
	if err != nil {
		return err
	}
	if _, err := ix.doc.WriteTo(sec); err != nil {
		return err
	}

	sec, err = w.Section(SectionStable)
	if err != nil {
		return err
	}
	se = newSliceEncoder(sec)
	se.u32s(ix.stableOf)
	se.i32s(ix.preOf)
	se.u32s(ix.attrStableOf)
	se.i32s(ix.attrOf)
	if err := se.flush(); err != nil {
		return err
	}

	for _, f := range ix.fams {
		if err := f.save(w); err != nil {
			return err
		}
	}
	if err := ix.writeStats(w); err != nil {
		return err
	}
	sec, err = w.Section(SectionVersion)
	if err != nil {
		return err
	}
	se = newSliceEncoder(sec)
	if ix.version > 0 {
		se.uv(ix.version)
	} else {
		se.uv(1) // a snapshot serialized before its first publication
	}
	if err := se.flush(); err != nil {
		return err
	}
	if withWALGen {
		sec, err = w.Section(SectionWALGen)
		if err != nil {
			return err
		}
		se = newSliceEncoder(sec)
		se.uv(walGen)
		if err := se.flush(); err != nil {
			return err
		}
	}
	return nil
}

// Load reads a snapshot produced by Save and reconstructs the Indexes
// (document included) with full checksum verification: the document,
// stable-id maps and trees are read, and every family's per-node state is
// recomputed by Build's Figure 7 fold. Loading fails with a descriptive
// error — never a panic or silent corruption — when the snapshot's format
// version is not this build's, it contains a typed index whose type ID is
// not registered in this process, or a count exceeds its section.
func Load(path string) (*Indexes, error) {
	r, err := storage.OpenReader(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return load(r)
}

func load(r *storage.Reader) (*Indexes, error) {
	sd, err := openSection(r, SectionMeta)
	if err != nil {
		return nil, err
	}
	version := sd.uv()
	if sd.err != nil {
		return nil, fmt.Errorf("core: reading snapshot meta: %w", sd.err)
	}
	if version != snapshotVersion {
		return nil, fmt.Errorf("core: unsupported snapshot format version %d (this build reads version %d)", version, snapshotVersion)
	}
	hasString := sd.uv() == 1
	nTypes := int(sd.uv())
	if sd.err != nil {
		return nil, fmt.Errorf("core: reading snapshot meta: %w", sd.err)
	}
	if nTypes < 0 || nTypes > 1<<10 {
		return nil, fmt.Errorf("core: implausible typed index count %d in snapshot meta", nTypes)
	}
	typeIDs := make([]TypeID, nTypes)
	for i := range typeIDs {
		id := TypeID(sd.uv())
		if sd.err != nil {
			return nil, fmt.Errorf("core: reading snapshot meta: %w", sd.err)
		}
		if _, ok := LookupType(id); !ok {
			return nil, fmt.Errorf("core: snapshot contains typed index with unknown type ID %d; register its TypeSpec before loading", id)
		}
		typeIDs[i] = id
	}

	sec, err := r.Section(SectionDoc)
	if err != nil {
		return nil, err
	}
	doc, err := xmltree.ReadDoc(sec)
	if err != nil {
		return nil, err
	}
	n, na := doc.NumNodes(), doc.NumAttrs()
	ix := &Snapshot{doc: doc, opts: optionsForTypes(hasString, typeIDs)}

	if sd, err = openSection(r, SectionStable); err != nil {
		return nil, err
	}
	ix.stableOf = sd.u32s(n)
	ix.preOf = sd.i32sAny()
	ix.attrStableOf = sd.u32s(na)
	ix.attrOf = sd.i32sAny()
	if sd.err != nil {
		return nil, sd.err
	}
	if err := ix.checkStableMaps(); err != nil {
		return nil, err
	}

	ix.fams = newFamilies(ix.opts, n, na)
	if r.SectionLen(SectionSubstr) >= 0 {
		ix.fams = append(ix.fams, &gramFamily{})
	}
	for _, f := range ix.fams {
		if err := f.load(r); err != nil {
			return nil, err
		}
	}
	var walGen uint64
	if r.SectionLen(SectionWALGen) >= 0 {
		if sd, err = openSection(r, SectionWALGen); err != nil {
			return nil, err
		}
		walGen = sd.uv()
		if sd.err != nil {
			return nil, fmt.Errorf("core: reading snapshot WAL generation: %w", sd.err)
		}
	}
	if r.SectionLen(SectionVersion) >= 0 {
		if sd, err = openSection(r, SectionVersion); err != nil {
			return nil, err
		}
		ix.version = sd.uv()
		if sd.err != nil {
			return nil, fmt.Errorf("core: reading snapshot version: %w", sd.err)
		}
	}
	// The per-node state is derived: Build's fold recomputes it, keying
	// typed items by the stable ids just checked.
	ix.fold(ix.opts.workers())
	ix.loadStats(r)
	out := wrapSnapshot(ix)
	out.walGen.Store(walGen)
	return out, nil
}

// writeStats persists the planner statistics: one keyStats per built
// tree, in the order the meta section declares them (string first, then
// the typed manifest). Substring statistics are derived data, rebuilt on
// load.
func (ix *Snapshot) writeStats(w *storage.Writer) error {
	return writeSection(w, SectionStats, func(sec io.Writer) error {
		se := newSliceEncoder(sec)
		se.uv(statsSectionVersion)
		if h := ix.hashes(); h != nil {
			se.uv(1)
			writeKeyStats(se, h.stats)
		} else {
			se.uv(0)
		}
		typed := ix.typedFams()
		se.uv(uint64(len(typed)))
		for _, t := range typed {
			se.uv(uint64(t.spec.ID))
			writeKeyStats(se, t.stats)
		}
		return se.flush()
	})
}

func writeKeyStats(se *sliceEncoder, ks *keyStats) {
	if ks == nil {
		ks = &keyStats{bounds: []uint64{math.MaxUint64}, counts: []int{0}}
	}
	se.uv(uint64(ks.total))
	se.uv(uint64(ks.distinct))
	se.uv(ks.min)
	se.uv(ks.max)
	se.uv(uint64(len(ks.bounds)))
	for _, b := range ks.bounds {
		se.uv(b)
	}
	for _, c := range ks.counts {
		se.uv(uint64(c))
	}
}

// loadStats restores the planner statistics from the snapshot, falling
// back to a rebuild from the trees whenever the section is absent, has an
// unknown version, or fails sanity checks — statistics are derived data,
// so a fallback is always safe.
func (ix *Snapshot) loadStats(r *storage.Reader) {
	persisted := ix.readStats(r)
	for _, f := range ix.fams {
		pt := f.postings()
		if ks, ok := persisted[f]; ok {
			pt.stats = ks
		} else {
			pt.rebuildStats()
		}
	}
}

// readStats returns the persisted statistics of the hash and typed
// families, or nil unless all of them are present and match their trees.
func (ix *Snapshot) readStats(r *storage.Reader) map[family]*keyStats {
	if r.SectionLen(SectionStats) < 0 {
		return nil
	}
	sd, err := openSection(r, SectionStats)
	if err != nil {
		return nil
	}
	if v := sd.uv(); sd.err != nil || v != statsSectionVersion {
		return nil
	}
	out := make(map[family]*keyStats)
	if sd.uv() == 1 {
		ks := readKeyStats(sd)
		if h := ix.hashes(); h != nil {
			out[h] = ks
		}
	}
	typed := ix.typedFams()
	if n := int(sd.uv()); sd.err != nil || n != len(typed) {
		return nil
	}
	for _, t := range typed {
		id := TypeID(sd.uv())
		out[t] = readKeyStats(sd)
		if sd.err != nil || id != t.spec.ID {
			return nil
		}
	}
	// Sanity: every histogram's population must match its tree.
	if h := ix.hashes(); h != nil && out[h] == nil {
		return nil
	}
	for f, ks := range out {
		if ks.sum() != f.postings().tree.Len() {
			return nil
		}
	}
	return out
}

func readKeyStats(sd *sliceDecoder) *keyStats {
	ks := &keyStats{}
	ks.total = int(sd.uv())
	ks.distinct = int(sd.uv())
	ks.min = sd.uv()
	ks.max = sd.uv()
	n := int(sd.uv())
	if sd.err != nil || n <= 0 || n > 4*histBuckets {
		sd.err = fmt.Errorf("implausible histogram bucket count %d", n)
		return ks
	}
	ks.bounds = make([]uint64, n)
	ks.counts = make([]int, n)
	for i := range ks.bounds {
		ks.bounds[i] = sd.uv()
	}
	for i := range ks.counts {
		ks.counts[i] = int(sd.uv())
	}
	if sd.err == nil && ks.bounds[n-1] != math.MaxUint64 {
		sd.err = fmt.Errorf("histogram missing catch-all bucket")
	}
	return ks
}

// sum is the histogram's population — a load-time cross-check against
// the tree it describes.
func (ks *keyStats) sum() int {
	s := 0
	for _, c := range ks.counts {
		s += c
	}
	return s
}

// Tree sections are versioned independently of the snapshot envelope.
// A section opens with treeSectionSentinel — a count no real tree can
// have — followed by the format version; a section that opens any other
// way predates versioning and is rejected.
//
//	v2:      uv(sentinel), uv(2), uv(count), then per entry
//	         uv(keyDelta); keyDelta == 0 ? uv(valDelta) : uv(val)
//
// v2 exploits that entries sort by (key, val) with strictly ascending
// vals inside an equal-key run: duplicate-key runs — the common case
// for hash and gram trees — delta-encode their postings, which is the
// same layout the in-memory packed leaves use (btree/packed.go).
const (
	treeSectionSentinel = uint64(math.MaxUint64)
	treeSectionVersion  = 2
)

func writeTree(w io.Writer, t *btree.Tree) error {
	se := newSliceEncoder(w)
	se.uv(treeSectionSentinel)
	se.uv(treeSectionVersion)
	se.uv(uint64(t.Len()))
	var prevKey uint64
	var prevVal uint32
	t.Scan(func(key uint64, val uint32) bool {
		d := key - prevKey
		se.uv(d)
		if d == 0 {
			se.uv(uint64(val - prevVal))
		} else {
			se.uv(uint64(val))
		}
		prevKey, prevVal = key, val
		return true
	})
	return se.flush()
}

// saveTree writes tree t as section name.
func saveTree(w *storage.Writer, name string, t *btree.Tree) error {
	return writeSection(w, name, func(sec io.Writer) error { return writeTree(sec, t) })
}

// loadTree reads section name back as a tree.
func loadTree(r *storage.Reader, name string) (*btree.Tree, error) {
	sd, err := openSection(r, name)
	if err != nil {
		return nil, err
	}
	return readTree(sd.r)
}

func readTree(r sizedReader) (*btree.Tree, error) {
	sd := newSliceDecoder(r)
	first := sd.uv()
	if sd.err != nil {
		return nil, sd.err
	}
	if first != treeSectionSentinel {
		return nil, fmt.Errorf("core: tree section has no format version (first varint %d, want sentinel %#x): a pre-v2 snapshot this build no longer reads; rebuild it from the XML", first, treeSectionSentinel)
	}
	version := sd.uv()
	if sd.err != nil {
		return nil, sd.err
	}
	if version != treeSectionVersion {
		return nil, fmt.Errorf("core: unsupported tree section format version %d (this build reads version %d)", version, treeSectionVersion)
	}
	n := sd.count(2) // an entry is two varints
	entries := make([]btree.Entry, 0, n)
	var key uint64
	var val uint32
	for i := 0; i < n && sd.err == nil; i++ {
		d := sd.uv()
		key += d
		if d == 0 {
			val += uint32(sd.uv())
		} else {
			val = uint32(sd.uv())
		}
		entries = append(entries, btree.Entry{Key: key, Val: val})
	}
	if sd.err != nil {
		return nil, sd.err
	}
	return btree.NewFromSorted(entries), nil
}

// SaveParts selects snapshot sections for staged persistence timing and
// storage accounting in the experiments: the paper's "shredding" stage
// writes the document store, index creation writes the index stores.
// Part files are not loadable by Load (they lack sections); use Save for
// complete snapshots. Double/DateTime/Date are sugar for the built-in
// type IDs; Types selects further registered typed indexes.
type SaveParts struct {
	Doc      bool
	String   bool
	Double   bool
	DateTime bool
	Date     bool
	Types    []TypeID
}

func (p SaveParts) typeIDs() []TypeID {
	return typeIDsFor(p.Double, p.DateTime, p.Date, p.Types)
}

// SavePartsTo writes only the selected sections to path.
func (ix *Snapshot) SavePartsTo(path string, parts SaveParts) error {
	w, err := storage.NewWriter(path)
	if err != nil {
		return err
	}
	fail := func(e error) error {
		w.Close()
		return e
	}
	if parts.Doc {
		sec, err := w.Section(SectionDoc)
		if err != nil {
			return fail(err)
		}
		if _, err := ix.doc.WriteTo(sec); err != nil {
			return fail(err)
		}
	}
	ids := parts.typeIDs()
	for _, f := range ix.fams {
		switch f := f.(type) {
		case *hashFamily:
			if !parts.String {
				continue
			}
		case *typedFamily:
			if !slices.Contains(ids, f.spec.ID) {
				continue
			}
		default:
			continue
		}
		if err := f.save(w); err != nil {
			return fail(err)
		}
	}
	return w.Close()
}

// writeSection streams one named section through write.
func writeSection(w *storage.Writer, name string, write func(io.Writer) error) error {
	sec, err := w.Section(name)
	if err != nil {
		return err
	}
	return write(sec)
}

// openSection opens one named section for decoding.
func openSection(r *storage.Reader, name string) (*sliceDecoder, error) {
	sec, err := r.Section(name)
	if err != nil {
		return nil, err
	}
	return newSliceDecoder(sec.(sizedReader)), nil
}

// --- varint codecs over io.Writer/Reader (snapshot sections and log
// records) ---

// sliceEncoder streams varints to w through a 64 KiB buffer. With a nil
// w it only appends to buf, which then holds the encoding: log records
// (durable.go) are built that way in a buffer sized to fit.
type sliceEncoder struct {
	w   io.Writer
	buf []byte
	err error
}

func newSliceEncoder(w io.Writer) *sliceEncoder {
	return &sliceEncoder{w: w, buf: make([]byte, 0, 1<<16)}
}

func (se *sliceEncoder) uv(v uint64) {
	if se.err != nil {
		return
	}
	se.buf = binary.AppendUvarint(se.buf, v)
	se.spill()
}

// str writes a uvarint length and the bytes of s.
func (se *sliceEncoder) str(s string) {
	se.uv(uint64(len(s)))
	if se.err == nil {
		se.buf = append(se.buf, s...)
		se.spill()
	}
}

// Write appends raw bytes, so an io.WriterTo can serialise into the
// encoding.
func (se *sliceEncoder) Write(p []byte) (int, error) {
	if se.err != nil {
		return 0, se.err
	}
	se.buf = append(se.buf, p...)
	se.spill()
	return len(p), se.err
}

// spill hands a full buffer to w (never when w is nil).
func (se *sliceEncoder) spill() {
	if se.w != nil && len(se.buf) >= 1<<16-16 {
		_, se.err = se.w.Write(se.buf)
		se.buf = se.buf[:0]
	}
}

func (se *sliceEncoder) u32s(s []uint32) {
	se.uv(uint64(len(s)))
	for _, v := range s {
		se.uv(uint64(v))
	}
}

func (se *sliceEncoder) i32s(s []int32) {
	se.uv(uint64(len(s)))
	for _, v := range s {
		se.uv(uint64(uint32(v))) // -1 sentinel round-trips through uint32
	}
}

func (se *sliceEncoder) flush() error {
	if se.err != nil {
		return se.err
	}
	if len(se.buf) > 0 {
		_, se.err = se.w.Write(se.buf)
		se.buf = se.buf[:0]
	}
	return se.err
}

// sliceDecoder reads what sliceEncoder wrote. Its bytes may come from
// the network (a follower's seed snapshot, a shipped log record), so
// every length it allocates for is bounded by the bytes left to read.
type sliceDecoder struct {
	r   sizedReader
	err error
}

// sizedReader is a byte source that knows how many bytes it has left: a
// snapshot section (*storage.SectionReader) or a log record's payload
// (*bytes.Reader).
type sizedReader interface {
	io.Reader
	io.ByteReader
	Len() int
}

func newSliceDecoder(r sizedReader) *sliceDecoder { return &sliceDecoder{r: r} }

func (sd *sliceDecoder) uv() uint64 {
	if sd.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(sd.r)
	if err != nil {
		sd.err = err
	}
	return v
}

// upTo reads a uvarint that must not exceed max, so a field decoded
// from untrusted bytes cannot wrap into a different (or negative) id.
func (sd *sliceDecoder) upTo(max uint64) uint64 {
	v := sd.uv()
	if sd.err == nil && v > max {
		sd.err = fmt.Errorf("core: field value %d exceeds %d", v, max)
	}
	return v
}

// count reads the length of a slice about to be allocated. Each element
// takes at least minBytes of encoding, so a length the bytes left cannot
// hold is an error: crafted bytes fail instead of allocating what they
// name.
func (sd *sliceDecoder) count(minBytes int) int {
	n := sd.uv()
	if left := sd.r.Len(); sd.err == nil && n > uint64(left/minBytes) {
		sd.err = fmt.Errorf("core: count %d does not fit in the %d bytes left", n, left)
		return 0
	}
	return int(n)
}

// str reads a uvarint length and that many bytes.
func (sd *sliceDecoder) str() string {
	b := make([]byte, sd.count(1))
	if _, err := io.ReadFull(sd.r, b); err != nil && sd.err == nil {
		sd.err = fmt.Errorf("core: truncated string field: %w", err)
	}
	return string(b)
}

func (sd *sliceDecoder) u32s(want int) []uint32 {
	n := sd.count(1)
	if sd.err != nil {
		return nil
	}
	if want >= 0 && n != want {
		sd.err = fmt.Errorf("core: slice has %d entries, want %d", n, want)
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(sd.uv())
	}
	return out
}

func (sd *sliceDecoder) i32sAny() []int32 {
	n := sd.count(1)
	if sd.err != nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(uint32(sd.uv()))
	}
	return out
}
