package pcol

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// Model-based tests: a byte program drives a column and a plain slice or
// map through the same writes and clones. After every step each live
// handle must read exactly its model, and every older handle exactly
// what it read when it was cloned away — writes through a clone must
// never show through a handle it was cloned from, nor through a sibling
// clone. The same interpreters back the fuzz targets.

// prog decodes a byte program; an exhausted program reads zeros.
type prog struct{ b []byte }

// maxProgram bounds the bytes a run interprets, so one fuzz input stays
// fast: every step re-reads every kept handle.
const maxProgram = 256

func newProg(code []byte) *prog { return &prog{code[:min(len(code), maxProgram)]} }

func (p *prog) done() bool { return len(p.b) == 0 }

func (p *prog) byte() int {
	if len(p.b) == 0 {
		return 0
	}
	v := p.b[0]
	p.b = p.b[1:]
	return int(v)
}

func (p *prog) u16() int { return p.byte()<<8 | p.byte() }

// keptVersions bounds how many frozen handles a run re-checks per step.
const keptVersions = 6

func runDense(t testing.TB, code []byte) {
	p := newProg(code)
	n := p.u16() % (3 * chunkLen)
	type version struct {
		col  Dense[int32]
		want []int32
	}
	// Two live handles, written independently: after a fork they are
	// sibling clones of one frozen handle, sharing its spine until each
	// first writes.
	base := version{NewDense[int32](n), make([]int32, n)}
	live := [2]version{{base.col.Clone(), slices.Clone(base.want)}, {base.col.Clone(), slices.Clone(base.want)}}
	old := []version{base}
	freeze := func(v version) {
		old = append(old, version{v.col, slices.Clone(v.want)})
		if len(old) > keptVersions {
			old = old[1:]
		}
	}
	for step := 0; !p.done(); step++ {
		op := p.byte()
		cur := &live[op/6%2]
		switch op % 6 {
		case 0:
			if len(cur.want) == 0 {
				continue
			}
			i, v := p.u16()%len(cur.want), int32(p.u16())
			cur.col.Set(i, v)
			cur.want[i] = v
		case 1:
			at := p.u16() % (len(cur.want) + 1)
			del := min(p.u16()%(2*chunkLen), len(cur.want)-at)
			ins := make([]int32, p.u16()%(chunkLen+chunkLen/2))
			for k := range ins {
				ins[k] = int32(step<<16 | k)
			}
			cur.col.Splice(at, del, ins)
			cur.want = slices.Concat(cur.want[:at], ins, cur.want[at+del:])
		case 2:
			freeze(*cur)
			cur.col = cur.col.Clone()
		case 3:
			v := int32(p.u16())
			cur.col.Append(v)
			cur.want = append(cur.want, v)
		case 4:
			freeze(*cur)
			src := *cur
			live[0] = version{src.col.Clone(), slices.Clone(src.want)}
			live[1] = version{src.col.Clone(), src.want}
		case 5:
			if len(cur.want) == 0 {
				continue
			}
			i := p.u16() % len(cur.want)
			end := min(i|chunkMask+1, len(cur.want))
			if got := cur.col.Chunk(i); !slices.Equal(got, cur.want[i:end]) {
				t.Fatalf("step %d: Chunk(%d) has %d values, want positions [%d:%d]", step, i, len(got), i, end)
			}
		}
		for _, v := range live {
			checkDense(t, step, &v.col, v.want)
		}
		for _, v := range old {
			checkDense(t, step, &v.col, v.want)
		}
	}
}

func checkDense(t testing.TB, step int, col *Dense[int32], want []int32) {
	t.Helper()
	if col.Len() != len(want) {
		t.Fatalf("step %d: Len %d, want %d", step, col.Len(), len(want))
	}
	for i, w := range want {
		if got := col.At(i); got != w {
			t.Fatalf("step %d: At(%d) = %d, want %d", step, i, got, w)
		}
	}
	if got := col.AppendRange(nil, 0, col.Len()); !slices.Equal(got, want) {
		t.Fatalf("step %d: AppendRange differs from the model", step)
	}
}

func runSparse(t testing.TB, code []byte) {
	p := newProg(code)
	const ids = 4*chunkLen + 100
	var cur Sparse[int32]
	model := map[uint32]int32{}
	type version struct {
		tab  Sparse[int32]
		want map[uint32]int32
	}
	var old []version
	for step := 0; !p.done(); step++ {
		switch p.byte() % 3 {
		case 0:
			id, v := uint32(p.u16()%ids), int32(p.u16())
			cur.Set(id, v)
			model[id] = v
		case 1:
			id := uint32(p.u16() % ids)
			cur.Delete(id)
			delete(model, id)
		case 2:
			want := make(map[uint32]int32, len(model))
			for k, v := range model {
				want[k] = v
			}
			old = append(old, version{cur, want})
			if len(old) > keptVersions {
				old = old[1:]
			}
			cur = cur.Clone()
		}
		checkSparse(t, step, &cur, model, ids)
		for _, v := range old {
			checkSparse(t, step, &v.tab, v.want, ids)
		}
	}
}

func checkSparse(t testing.TB, step int, tab *Sparse[int32], want map[uint32]int32, ids uint32) {
	t.Helper()
	if tab.Len() != len(want) {
		t.Fatalf("step %d: Len %d, want %d", step, tab.Len(), len(want))
	}
	for id, w := range want {
		if got := tab.Get(id); got != w {
			t.Fatalf("step %d: Get(%d) = %d, want %d", step, id, got, w)
		}
	}
	// All below yields no absent id; Get reads the same chunks.
	if got := tab.Get(ids); got != 0 {
		t.Fatalf("step %d: Get of a never-set id = %d", step, got)
	}
	n, prev := 0, int64(-1)
	for id, v := range tab.All() {
		if int64(id) <= prev {
			t.Fatalf("step %d: All yields %d after %d", step, id, prev)
		}
		if w, ok := want[id]; !ok || w != v {
			t.Fatalf("step %d: All yields %d=%d, want %d (present %v)", step, id, v, w, ok)
		}
		n, prev = n+1, int64(id)
	}
	if n != len(want) {
		t.Fatalf("step %d: All yields %d ids, want %d", step, n, len(want))
	}
}

func randomProgram(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestDenseModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		runDense(t, randomProgram(seed, maxProgram))
	}
}

func TestSparseModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		runSparse(t, randomProgram(seed, maxProgram))
	}
}

// TestCloneCopiesOnlyWrittenChunks pins the cost model the commit path
// relies on: a clone shares every chunk, a write copies exactly one.
func TestCloneCopiesOnlyWrittenChunks(t *testing.T) {
	base := NewDense[uint32](10 * chunkLen)
	c := base.Clone()
	c.Set(3*chunkLen+5, 7)
	c.Set(3*chunkLen+6, 8)
	copied := 0
	for i := range base.spine {
		if base.spine[i] != c.spine[i] {
			copied++
		}
	}
	if copied != 1 {
		t.Fatalf("two writes to one chunk copied %d chunks, want 1", copied)
	}

	var s Sparse[int]
	for id := uint32(0); id < 10*chunkLen; id += 3 {
		s.Set(id, int(id))
	}
	sc := s.Clone()
	sc.Delete(chunkLen + 1) // absent: copies nothing
	sc.Set(5*chunkLen+3, 1)
	copied = 0
	for i := range s.spine {
		if s.spine[i] != sc.spine[i] {
			copied++
		}
	}
	if copied != 1 {
		t.Fatalf("one write and one absent delete copied %d chunks, want 1", copied)
	}
}

// TestDenseChunksAllocateExactlyTheirValues pins that a chunk is exactly
// its values, with nothing beside them to push it into a larger size
// class: a 1 Mi-entry int32 column is 4 MiB of values and a 16 KiB
// spine, and MemBytes reports what the heap holds.
func TestDenseChunksAllocateExactlyTheirValues(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := NewDense[int32](1 << 20)
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("1 Mi int32 positions: %d B of heap, MemBytes %d", heap, d.MemBytes())
	if limit := int64(41 << 20 / 10); heap > limit {
		t.Fatalf("a 1 Mi-entry Dense[int32] takes %d B of heap, want ≤ %d", heap, limit)
	}
	if want := 4<<20 + 16<<10; d.MemBytes() != want {
		t.Fatalf("MemBytes %d, want %d", d.MemBytes(), want)
	}
	runtime.KeepAlive(d)
}

func FuzzDense(f *testing.F) {
	f.Add(randomProgram(1, 64))
	f.Fuzz(func(t *testing.T, code []byte) { runDense(t, code) })
}

func FuzzSparse(f *testing.F) {
	f.Add(randomProgram(1, 64))
	f.Fuzz(func(t *testing.T, code []byte) { runSparse(t, code) })
}
