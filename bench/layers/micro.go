package layers

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/btree"
	"repro/internal/storage"
	"repro/internal/vhash"
)

// The probes below time the layers that sit under a commit or a lookup
// with fixed, seeded inputs. They take tens of thousands of calls each, so
// they report a mean per call instead of one span per call.

// BTreeTimes are the packed B+tree's costs at treeEntries entries.
type BTreeTimes struct {
	SeekNS        float64 // CursorAt
	NextNS        float64 // Cursor.Next, per entry
	BytesPerEntry float64 // MemBytes / Len
	InsertUS      float64
	DeleteUS      float64
	CloneInsertUS float64 // O(1) Clone + one path-copying Insert
}

const (
	treeEntries = 200_000 // about the double index of the served document
	treeOps     = 20_000
	treeClones  = 2_000
)

// sink keeps the probes' results alive so the calls are not optimised away.
var sink uint64

// BTree measures seek, scan, insert, delete and clone-then-insert on one
// tree of treeEntries random keys.
func BTree(seed int64) BTreeTimes {
	rng := rand.New(rand.NewSource(seed))
	entries := make([]btree.Entry, treeEntries)
	for i := range entries {
		entries[i] = btree.Entry{Key: rng.Uint64() >> 20, Val: uint32(i)}
	}
	btree.SortEntries(entries)
	tree := btree.NewFromSorted(entries)
	var out BTreeTimes
	out.BytesPerEntry = float64(tree.MemBytes()) / float64(tree.Len())

	keys := make([]uint64, treeOps)
	for i := range keys {
		keys[i] = rng.Uint64() >> 20
	}
	start := time.Now()
	for _, k := range keys {
		if e, ok := tree.CursorAt(k).Next(); ok {
			sink += e.Key
		}
	}
	// Each iteration is one seek and one Next; the Next share is taken off
	// below, once it is known.
	seekAndNext := float64(time.Since(start).Nanoseconds()) / treeOps

	start = time.Now()
	cur := tree.CursorFirst()
	n := 0
	for {
		e, ok := cur.Next()
		if !ok {
			break
		}
		sink += e.Key
		n++
	}
	out.NextNS = float64(time.Since(start).Nanoseconds()) / float64(n)
	out.SeekNS = seekAndNext - out.NextNS

	start = time.Now()
	for i, k := range keys {
		tree.Insert(k, uint32(treeEntries+i))
	}
	out.InsertUS = float64(time.Since(start).Nanoseconds()) / treeOps / 1e3
	start = time.Now()
	for i, k := range keys {
		tree.Delete(k, uint32(treeEntries+i))
	}
	out.DeleteUS = float64(time.Since(start).Nanoseconds()) / treeOps / 1e3

	start = time.Now()
	for i, k := range keys[:treeClones] {
		clone := tree.Clone()
		clone.Insert(k, uint32(treeEntries+i))
		sink += uint64(clone.Len())
	}
	out.CloneInsertUS = float64(time.Since(start).Nanoseconds()) / treeClones / 1e3
	return out
}

// WALTimes are the write-ahead log's costs for a record of walPayload
// bytes, the size of a four-value text batch.
type WALTimes struct {
	AppendUS float64 // Append without fsync
	SyncUS   float64 // Sync after one appended record: this machine's fsync
}

const (
	walPayload = 160
	walAppends = 2_000
	walSyncs   = 100
)

// WAL measures Append and Sync on a fresh log at path, which it removes.
func WAL(path string) (WALTimes, error) {
	// A sync interval the probe never reaches keeps Append free of fsync.
	w, err := storage.CreateWAL(path, 1<<30)
	if err != nil {
		return WALTimes{}, fmt.Errorf("layers: create wal: %w", err)
	}
	defer os.Remove(path)
	payload := make([]byte, walPayload)
	var out WALTimes
	start := time.Now()
	for i := 0; i < walAppends; i++ {
		if err := w.Append(storage.RecTextBatch, payload); err != nil {
			return out, fmt.Errorf("layers: wal append: %w", err)
		}
	}
	out.AppendUS = float64(time.Since(start).Nanoseconds()) / walAppends / 1e3
	var syncing time.Duration
	for i := 0; i < walSyncs; i++ {
		if err := w.Append(storage.RecTextBatch, payload); err != nil {
			return out, fmt.Errorf("layers: wal append: %w", err)
		}
		start = time.Now()
		if err := w.Sync(); err != nil {
			return out, fmt.Errorf("layers: wal sync: %w", err)
		}
		syncing += time.Since(start)
	}
	out.SyncUS = float64(syncing.Nanoseconds()) / walSyncs / 1e3
	return out, w.Close()
}

// VHashTimes are the value hash's costs.
type VHashTimes struct {
	HashNSPerByte float64
	CombineNS     float64
}

// VHash measures Hash over text of the document's kind and Combine over
// the hashes of its pieces.
func VHash(text []byte) VHashTimes {
	const rounds = 8
	var out VHashTimes
	start := time.Now()
	for i := 0; i < rounds; i++ {
		sink += uint64(vhash.Hash(text))
	}
	out.HashNSPerByte = float64(time.Since(start).Nanoseconds()) / float64(rounds*len(text))

	const pieces = 1 << 16
	hashes := make([]uint32, pieces)
	for i := range hashes {
		hashes[i] = vhash.Hash(text[i%len(text) : min(i%len(text)+16, len(text))])
	}
	start = time.Now()
	acc := vhash.Identity
	for i := 0; i < rounds; i++ {
		for _, h := range hashes {
			acc = vhash.Combine(acc, h)
		}
	}
	out.CombineNS = float64(time.Since(start).Nanoseconds()) / float64(rounds*pieces)
	sink += uint64(acc)
	return out
}
