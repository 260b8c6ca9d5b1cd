package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/btree"
	"repro/internal/pcol"
	"repro/internal/storage"
	"repro/internal/xmltree"
)

// Snapshot layout (format version 4). Every section goes through the
// storage codec (storage/codec.go) and holds only what cannot be
// derived:
//
//	meta     the format version, whether the string index is built, and
//	         the typed manifest (type IDs in registry order)
//	doc      the document (xmltree/serial.go)
//	stable   per side (nodes, then attributes): the stable-id column,
//	         then the retired stable ids as ascending deltas
//	strtree  the string hash tree
//	typed.N  one per typed index: its type ID, then its tree
//	substr   the q-gram tree, when the substring index is enabled
//	version  the publication sequence number
//	walgen   the checkpoint generation, in checkpoints only
//
// Load derives the rest: parents and levels from sizes (ReadDoc), preOf
// and attrOf by inverting the stable columns (an id space is as long as
// its column plus its retired ids, so it never outgrows the section),
// every family's per-node hashes and FSM fragments with the fold Build
// runs (Figure 7), and the planner statistics from the decoded entries.
// SectionDoc vs the tree sections is what the storage-overhead
// experiment (Figure 9 bottom) compares.
// Typed sections are named by stable type ID, so snapshots written with
// any registry subset load under any superset.
const (
	SectionMeta    = "meta"
	SectionDoc     = "doc"
	SectionStable  = "stable"
	SectionStrTree = "strtree"

	// SectionWALGen pairs a snapshot with a write-ahead log: it holds the
	// checkpoint generation the snapshot was written at. Only present in
	// snapshots written by Checkpoint; its absence means generation 0
	// (a snapshot that never had a WAL).
	SectionWALGen = "walgen"

	// SectionSubstr holds the q-gram substring index tree (see substr.go).
	// Optional: presence means the index was enabled when the snapshot
	// was written, and loading restores it enabled; absence loads with
	// the index off.
	SectionSubstr = "substr"

	// SectionVersion holds the snapshot's publication sequence number
	// (Snapshot.Version), so commit-sequence tokens handed to network
	// clients stay valid across Save/Load and checkpoint/recovery: a
	// reloaded document continues the version sequence instead of
	// restarting at 1.
	SectionVersion = "version"

	// snapshotVersion is the one snapshot format number; it covers every
	// section. Load rejects every other version.
	snapshotVersion = 4
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
	err := writeSection(w, SectionMeta, func(e *storage.Encoder) {
		e.Uv(snapshotVersion)
		if ix.opts.String {
			e.Uv(1)
		} else {
			e.Uv(0)
		}
		typed := ix.typedFams()
		e.Uv(uint64(len(typed)))
		for _, t := range typed {
			e.Uv(uint64(t.spec.ID))
		}
	})
	if err != nil {
		return err
	}
	if err := writeSection(w, SectionDoc, ix.doc.Encode); err != nil {
		return err
	}
	err = writeSection(w, SectionStable, func(e *storage.Encoder) {
		writeStableSide(e, &ix.stableOf, &ix.preOf)
		writeStableSide(e, &ix.attrStableOf, &ix.attrOf)
	})
	if err != nil {
		return err
	}
	for _, f := range ix.fams {
		if err := f.save(w); err != nil {
			return err
		}
	}
	err = writeSection(w, SectionVersion, func(e *storage.Encoder) {
		e.Uv(max(ix.version, 1)) // 1 before its first publication
	})
	if err != nil || !withWALGen {
		return err
	}
	return writeSection(w, SectionWALGen, func(e *storage.Encoder) { e.Uv(walGen) })
}

// Load reads a snapshot produced by Save and reconstructs the Indexes
// (document included) with full checksum verification: the stored
// sections are read and everything else is derived (see the layout
// above). Loading fails with a descriptive error — never a panic or
// silent corruption — when the snapshot's format version is not this
// build's, it contains a typed index whose type ID is not registered in
// this process, a count exceeds its section, or the stable-id columns
// repeat an id or leave their id space.
func Load(path string) (*Indexes, error) {
	r, err := storage.OpenReader(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return load(r)
}

func load(r *storage.Reader) (*Indexes, error) {
	d, err := openSection(r, SectionMeta)
	if err != nil {
		return nil, err
	}
	if v := d.Uv(); d.Err() == nil && v != snapshotVersion {
		return nil, fmt.Errorf("core: unsupported snapshot format version %d (this build reads version %d)", v, snapshotVersion)
	}
	hasString := d.Uv() == 1
	typeIDs := make([]TypeID, d.Count(1))
	for i := range typeIDs {
		typeIDs[i] = TypeID(d.UpTo(math.MaxUint16))
		if _, ok := LookupType(typeIDs[i]); d.Err() == nil && !ok {
			return nil, fmt.Errorf("core: snapshot contains typed index with unknown type ID %d; register its TypeSpec before loading", typeIDs[i])
		}
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("core: reading snapshot meta: %w", err)
	}

	if d, err = openSection(r, SectionDoc); err != nil {
		return nil, err
	}
	doc, err := xmltree.ReadDoc(d)
	if err != nil {
		return nil, err
	}
	ix := &Snapshot{doc: doc, opts: Options{String: hasString, Types: typeIDs}}

	if d, err = openSection(r, SectionStable); err != nil {
		return nil, err
	}
	readStableSide(d, doc.NumNodes(), &ix.stableOf, &ix.preOf)
	readStableSide(d, doc.NumAttrs(), &ix.attrStableOf, &ix.attrOf)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("core: reading stable-id maps: %w", err)
	}

	ix.fams = newFamilies(ix.opts, doc.NumNodes(), doc.NumAttrs())
	if r.SectionLen(SectionSubstr) >= 0 {
		ix.fams = append(ix.fams, &gramFamily{})
	}
	// The per-node state is derived: Build's fold recomputes it, keying
	// typed items by the stable ids just read. The tree sections depend
	// on neither the fold nor the document, so they decode — each tree
	// bulk-loaded with its statistics derived from the decoded entries —
	// on part of the worker budget while the fold runs on the rest.
	workers := ix.opts.workers()
	treeWorkers := max(workers/2, 1)
	errs := make([]error, len(ix.fams))
	parallelFor(min(workers, 2), 2, func(job int) {
		if job == 0 {
			parallelFor(treeWorkers, len(ix.fams), func(i int) { errs[i] = ix.fams[i].load(r) })
		} else {
			ix.fold(max(workers-treeWorkers, 1))
		}
	})
	if err := cmp.Or(errs...); err != nil {
		return nil, err
	}
	if ix.version, err = readUv(r, SectionVersion); err != nil {
		return nil, err
	}
	var walGen uint64
	if r.SectionLen(SectionWALGen) >= 0 {
		if walGen, err = readUv(r, SectionWALGen); err != nil {
			return nil, err
		}
	}
	out := wrapSnapshot(ix)
	out.walGen.Store(walGen)
	return out, nil
}

// writeStableSide writes one side's stable-id column, then the side's
// retired ids (those whose inverse entry is -1) as a count and ascending
// deltas. The id space's length is never stored: it is the two counts'
// sum, so a reader's inverse map is bounded by the bytes it read.
func writeStableSide(e *storage.Encoder, stables *pcol.Dense[uint32], pos *pcol.Dense[int32]) {
	e.U32s(stables.AppendRange(nil, 0, stables.Len()))
	e.Uv(uint64(pos.Len() - stables.Len()))
	prev := 0
	for s := range pos.Len() {
		if pos.At(s) < 0 {
			e.Uv(uint64(s - prev))
			prev = s
		}
	}
}

// readStableSide reads what writeStableSide wrote into stableCol and
// builds the inverse map (-1 for retired ids) in posCol. The column and
// the retired ids must together name every id of the space exactly once:
// an id outside the space, or one that repeats, is an error.
func readStableSide(d *storage.Decoder, n int, stableCol *pcol.Dense[uint32], posCol *pcol.Dense[int32]) {
	stables := d.U32s(n)
	space := n + d.Count(1)
	if space > 1<<31 { // a posting packs the stable id into 31 bits
		d.Fail(fmt.Errorf("core: stable id space of %d exceeds 2^31", space))
	}
	if d.Err() != nil {
		return
	}
	const unseen = -2
	pos := make([]int32, space)
	for i := range pos {
		pos[i] = unseen
	}
	claim := func(s uint64, p int32) bool {
		if s >= uint64(space) || pos[s] != unseen {
			d.Fail(fmt.Errorf("core: stable map broken: stable id %d is outside its %d-id space or repeats", s, space))
			return false
		}
		pos[s] = p
		return true
	}
	for i, s := range stables {
		if !claim(uint64(s), int32(i)) {
			return
		}
	}
	var s uint64
	for range space - n {
		s += d.UpTo(1 << 31)
		if d.Err() != nil || !claim(s, -1) {
			return
		}
	}
	stableCol.Splice(0, 0, stables)
	posCol.Splice(0, 0, pos)
}

// readUv reads the one-uvarint section name.
func readUv(r *storage.Reader, name string) (uint64, error) {
	d, err := openSection(r, name)
	if err != nil {
		return 0, err
	}
	v := d.Uv()
	if err := d.Err(); err != nil {
		return 0, fmt.Errorf("core: reading section %s: %w", name, err)
	}
	return v, nil
}

// A tree section holds the entry count, then per entry
//
//	uv(keyDelta); keyDelta == 0 ? uv(valDelta) : uv(val)
//
// Entries sort by (key, val) with strictly ascending vals inside an
// equal-key run, so duplicate-key runs — the common case for hash and
// gram trees — delta-encode their postings, the same layout the
// in-memory packed leaves use (btree/packed.go).
func writeTree(e *storage.Encoder, t *btree.Tree) {
	e.Uv(uint64(t.Len()))
	var prevKey uint64
	var prevVal uint32
	t.Scan(func(key uint64, val uint32) bool {
		d := key - prevKey
		e.Uv(d)
		if d == 0 {
			e.Uv(uint64(val - prevVal))
		} else {
			e.Uv(uint64(val))
		}
		prevKey, prevVal = key, val
		return true
	})
}

// saveTree writes tree t as section name.
func saveTree(w *storage.Writer, name string, t *btree.Tree) error {
	return writeSection(w, name, func(e *storage.Encoder) { writeTree(e, t) })
}

// loadTree reads section name back into pt's tree and statistics.
func loadTree(r *storage.Reader, name string, pt *postingTree) error {
	d, err := openSection(r, name)
	if err != nil {
		return err
	}
	return readTree(d, pt)
}

func readTree(d *storage.Decoder, pt *postingTree) error {
	n := d.Count(2) // an entry is two varints
	entries := make([]btree.Entry, 0, n)
	var key uint64
	var val uint32
	for i := 0; i < n && d.Err() == nil; i++ {
		// Entries ascend strictly by (key, val), as NewFromSorted requires.
		if delta := d.Uv(); delta != 0 {
			if key+delta < key {
				d.Fail(fmt.Errorf("core: tree entry %d: key delta %d wraps", i, delta))
			}
			key, val = key+delta, uint32(d.UpTo(math.MaxUint32))
		} else if step := d.UpTo(math.MaxUint32 - uint64(val)); step > 0 || i == 0 {
			val += uint32(step)
		} else {
			d.Fail(fmt.Errorf("core: tree entry %d repeats the entry before", i))
		}
		entries = append(entries, btree.Entry{Key: key, Val: val})
	}
	if err := d.Err(); err != nil {
		return err
	}
	pt.bulkLoad(entries)
	return nil
}

// SaveParts selects snapshot sections for staged persistence timing and
// storage accounting in the experiments: the paper's "shredding" stage
// writes the document store, index creation writes the index stores.
// Part files are not loadable by Load (they lack sections); use Save for
// complete snapshots. Types selects registered typed indexes.
type SaveParts struct {
	Doc    bool
	String bool
	Types  []TypeID
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
		if err := writeSection(w, SectionDoc, ix.doc.Encode); err != nil {
			return fail(err)
		}
	}
	for _, f := range ix.fams {
		switch f := f.(type) {
		case *hashFamily:
			if !parts.String {
				continue
			}
		case *typedFamily:
			if !slices.Contains(parts.Types, f.spec.ID) {
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

// writeSection encodes one named section with write.
func writeSection(w *storage.Writer, name string, write func(*storage.Encoder)) error {
	sec, err := w.Section(name)
	if err != nil {
		return err
	}
	e := storage.NewEncoder(sec)
	write(e)
	return e.Flush()
}

// openSection opens one named section for decoding.
func openSection(r *storage.Reader, name string) (*storage.Decoder, error) {
	sec, err := r.Section(name)
	if err != nil {
		return nil, err
	}
	return storage.NewDecoder(sec.(storage.SizedReader)), nil
}
