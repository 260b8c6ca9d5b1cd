package btree

import (
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// oracleModel shadows a tree with a plain sorted entry slice.
type oracleModel struct {
	entries []Entry
}

func (o *oracleModel) insert(e Entry) bool {
	i := sort.Search(len(o.entries), func(i int) bool { return !o.entries[i].less(e) })
	if i < len(o.entries) && o.entries[i] == e {
		return false
	}
	o.entries = append(o.entries, Entry{})
	copy(o.entries[i+1:], o.entries[i:])
	o.entries[i] = e
	return true
}

func (o *oracleModel) delete(e Entry) bool {
	i := sort.Search(len(o.entries), func(i int) bool { return !o.entries[i].less(e) })
	if i >= len(o.entries) || o.entries[i] != e {
		return false
	}
	o.entries = append(o.entries[:i], o.entries[i+1:]...)
	return true
}

func collectScan(t *Tree) []Entry {
	var out []Entry
	t.Scan(func(k uint64, v uint32) bool {
		out = append(out, Entry{Key: k, Val: v})
		return true
	})
	return out
}

func collectCursor(c *Cursor) []Entry {
	var out []Entry
	for {
		e, ok := c.Next()
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

func sameEntries(t *testing.T, what string, got, want []Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestPackedLeafOracle drives a packed tree and a flat sorted-slice
// oracle through the same random mutation history, checking after every
// phase that scans, range scans, point lookups, cursors, and Min all
// agree byte-for-byte. Key distributions are chosen to exercise the
// delta codec's edge cases: dense duplicate runs (keyDelta 0), huge
// deltas (many-byte varints), and key/val zero.
func TestPackedLeafOracle(t *testing.T) {
	distributions := []struct {
		name string
		key  func(r *rand.Rand) uint64
		val  func(r *rand.Rand) uint32
	}{
		{"dense-dups", func(r *rand.Rand) uint64 { return uint64(r.Intn(7)) }, func(r *rand.Rand) uint32 { return uint32(r.Intn(2000)) }},
		{"clustered", func(r *rand.Rand) uint64 { return uint64(r.Intn(500)) }, func(r *rand.Rand) uint32 { return uint32(r.Intn(64)) }},
		{"sparse-64bit", func(r *rand.Rand) uint64 { return r.Uint64() }, func(r *rand.Rand) uint32 { return r.Uint32() }},
		{"zero-heavy", func(r *rand.Rand) uint64 { return uint64(r.Intn(2)) * r.Uint64() }, func(r *rand.Rand) uint32 { return uint32(r.Intn(3)) }},
	}
	for _, dist := range distributions {
		t.Run(dist.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(7))
			tree := New()
			oracle := &oracleModel{}
			check := func(stage string) {
				t.Helper()
				sameEntries(t, stage+"/scan", collectScan(tree), oracle.entries)
				sameEntries(t, stage+"/cursor", collectCursor(tree.CursorFirst()), oracle.entries)
				if tree.Len() != len(oracle.entries) {
					t.Fatalf("%s: Len %d, want %d", stage, tree.Len(), len(oracle.entries))
				}
				if e, ok := tree.Min(); ok != (len(oracle.entries) > 0) || (ok && e != oracle.entries[0]) {
					t.Fatalf("%s: Min %v/%v, oracle %v", stage, e, ok, oracle.entries)
				}
				// Spot-check point lookups and positioned cursors.
				for i := 0; i < 32; i++ {
					e := Entry{Key: dist.key(r), Val: dist.val(r)}
					if len(oracle.entries) > 0 && i%2 == 0 {
						e = oracle.entries[r.Intn(len(oracle.entries))]
					}
					want := false
					for _, oe := range oracle.entries {
						if oe == e {
							want = true
							break
						}
					}
					if got := tree.Contains(e.Key, e.Val); got != want {
						t.Fatalf("%s: Contains(%v) = %v, want %v", stage, e, got, want)
					}
					from := sort.Search(len(oracle.entries), func(j int) bool { return oracle.entries[j].Key >= e.Key })
					sameEntries(t, stage+"/cursorAt", collectCursor(tree.CursorAt(e.Key)), oracle.entries[from:])
				}
				// One random range scan.
				lo, hi := dist.key(r), dist.key(r)
				if lo > hi {
					lo, hi = hi, lo
				}
				var want []Entry
				for _, oe := range oracle.entries {
					if oe.Key >= lo && oe.Key <= hi {
						want = append(want, oe)
					}
				}
				var got []Entry
				tree.ScanRange(lo, hi, func(k uint64, v uint32) bool {
					got = append(got, Entry{Key: k, Val: v})
					return true
				})
				sameEntries(t, stage+"/range", got, want)
			}

			for round := 0; round < 8; round++ {
				for i := 0; i < 300; i++ {
					e := Entry{Key: dist.key(r), Val: dist.val(r)}
					if tree.Insert(e.Key, e.Val) != oracle.insert(e) {
						t.Fatalf("insert(%v) disagreed", e)
					}
				}
				check("after-insert")
				// Clone, keep mutating the clone, and confirm the pinned
				// handle still answers from the pre-clone state.
				pinned := collectScan(tree)
				old := tree
				tree = tree.Clone()
				for i := 0; i < 150 && len(oracle.entries) > 0; i++ {
					var e Entry
					if i%3 == 0 {
						e = Entry{Key: dist.key(r), Val: dist.val(r)}
					} else {
						e = oracle.entries[r.Intn(len(oracle.entries))]
					}
					if tree.Delete(e.Key, e.Val) != oracle.delete(e) {
						t.Fatalf("delete(%v) disagreed", e)
					}
				}
				check("after-delete")
				sameEntries(t, "pinned-clone", collectScan(old), pinned)
			}
		})
	}
}

// TestNewFromSortedPacked cross-checks bulk loading against the oracle
// on sizes straddling leaf and inner fan-out boundaries.
func TestNewFromSortedPacked(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 54, 55, 64, 65, 500, 5000} {
		set := map[Entry]bool{}
		for len(set) < n {
			set[Entry{Key: uint64(r.Intn(n + 1)), Val: r.Uint32()}] = true
		}
		entries := make([]Entry, 0, n)
		for e := range set {
			entries = append(entries, e)
		}
		SortEntries(entries)
		tree := NewFromSorted(entries)
		sameEntries(t, "bulk", collectScan(tree), entries)
		if tree.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tree.Len())
		}
	}
}

// TestPackedFootprint pins the point of the layout: a bulk-loaded tree
// over clustered keys must take meaningfully less memory than the
// unpacked []Entry layout it replaced.
func TestPackedFootprint(t *testing.T) {
	entries := make([]Entry, 0, 1<<16)
	for i := 0; i < 1<<16; i++ {
		entries = append(entries, Entry{Key: uint64(i / 4), Val: uint32(i)})
	}
	tree := NewFromSorted(entries)
	packed, unpacked := tree.MemBytes(), unpackedBytes(tree)
	if packed >= unpacked/2 {
		t.Fatalf("packed %d bytes vs unpacked %d: expected > 2x saving on clustered keys", packed, unpacked)
	}
}

// unpackedBytes is what t's node graph would occupy with leaves stored as
// raw []Entry slices (16 bytes per entry), the layout before leaf packing.
func unpackedBytes(t *Tree) int {
	return int(unsafe.Sizeof(Tree{})) + nodeUnpackedBytes(t.root)
}

func nodeUnpackedBytes(n node) int {
	switch nn := n.(type) {
	case *leaf:
		return leafFixedBytes + int(nn.count)*entryBytes
	case *inner:
		b := innerFixedBytes + cap(nn.keys)*entryBytes + cap(nn.children)*nodeIfaceBytes
		for _, c := range nn.children {
			b += nodeUnpackedBytes(c)
		}
		return b
	}
	panic("btree: unknown node type")
}
