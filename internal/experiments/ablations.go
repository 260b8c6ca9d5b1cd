package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/plan"
	"repro/internal/txn"
	"repro/internal/vhash"
	"repro/internal/xmlparse"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// --- A1: combination function C vs naive re-hash ---

// A1Row compares maintaining ancestor hashes with the combination
// function C (the paper's design) against re-hashing reconstructed
// string values after each update batch.
type A1Row struct {
	Dataset     string
	Updates     int
	CombineMS   float64 // Figure 8 incremental update (uses C)
	RehashMS    float64 // re-hash every affected ancestor's string value
	SpeedupX    float64
	AvgAncestor float64 // average ancestors per updated node
}

// RunA1 measures one dataset at one batch size.
func RunA1(cfg Config, dataset string, updates int) (A1Row, error) {
	p, err := cfg.prepare(dataset)
	if err != nil {
		return A1Row{}, err
	}
	ix := core.Build(p.doc, cfg.buildOpts(core.Options{String: true}))
	// The baseline writes its values into a private clone: the indexed
	// document shares its storage and must not change under the index.
	doc := p.doc.Clone()
	var texts []xmltree.NodeID
	for i := 0; i < doc.NumNodes(); i++ {
		if doc.Kind(xmltree.NodeID(i)) == xmltree.Text {
			texts = append(texts, xmltree.NodeID(i))
		}
	}
	if updates > len(texts) {
		updates = len(texts)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	row := A1Row{Dataset: dataset, Updates: updates}

	var totalAnc int
	var combineNS, rehashNS int64
	for r := 0; r < cfg.repeat(); r++ {
		batch := randomUpdates(rng, texts, updates)
		start := time.Now()
		if err := ix.UpdateTexts(batch); err != nil {
			return row, err
		}
		combineNS += time.Since(start).Nanoseconds()

		// Naive baseline: apply values, then recompute every affected
		// ancestor's hash from its RECONSTRUCTED string value.
		batch = randomUpdates(rng, texts, updates)
		start = time.Now()
		affected := map[xmltree.NodeID]struct{}{}
		for _, u := range batch {
			if err := doc.SetText(u.Node, u.Value); err != nil {
				return row, err
			}
			for a := doc.Parent(u.Node); a != xmltree.InvalidNode; a = doc.Parent(a) {
				affected[a] = struct{}{}
			}
		}
		var buf []byte
		for a := range affected {
			buf = doc.AppendStringValue(buf[:0], a)
			sinkHash = vhash.Hash(buf)
		}
		rehashNS += time.Since(start).Nanoseconds()
		totalAnc += len(affected)
	}
	n := int64(cfg.repeat())
	row.CombineMS = float64(combineNS/n) / 1e6
	row.RehashMS = float64(rehashNS/n) / 1e6
	if row.CombineMS > 0 {
		row.SpeedupX = row.RehashMS / row.CombineMS
	}
	row.AvgAncestor = float64(totalAnc) / float64(cfg.repeat()*updates)
	return row, nil
}

var sinkHash uint32

// --- A2: SCT probe vs FSM re-run ---

// A2Row compares combining two fragment states through the SCT against
// re-running the FSM over the concatenated lexical text — the paper's
// "probing an array vs. invoking a function" observation.
type A2Row struct {
	Pairs    int
	SCTNS    float64 // ns per combination via SCT
	FSMNS    float64 // ns per combination via FSM re-run
	SpeedupX float64
}

// RunA2 measures both paths over generated fragment pairs.
func RunA2(cfg Config) A2Row {
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := fsm.Double()
	type pair struct {
		a, b fsm.Frag
		text []byte
	}
	var pairs []pair
	for len(pairs) < 1000 {
		a := fmt.Sprintf("%d", rng.Intn(100000))
		b := fmt.Sprintf(".%d", rng.Intn(10000))
		fa, ok1 := m.ParseFragString(a)
		fb, ok2 := m.ParseFragString(b)
		if ok1 && ok2 {
			pairs = append(pairs, pair{a: fa, b: fb, text: []byte(a + b)})
		}
	}
	const rounds = 2000
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, p := range pairs {
			sinkElem = m.CombineElem(p.a.Elem, p.b.Elem)
		}
	}
	sctNS := float64(time.Since(start).Nanoseconds()) / float64(rounds*len(pairs))

	start = time.Now()
	for r := 0; r < rounds; r++ {
		for _, p := range pairs {
			sinkElem = m.ElemOf(p.text)
		}
	}
	fsmNS := float64(time.Since(start).Nanoseconds()) / float64(rounds*len(pairs))
	row := A2Row{Pairs: len(pairs), SCTNS: sctNS, FSMNS: fsmNS}
	if sctNS > 0 {
		row.SpeedupX = fsmNS / sctNS
	}
	return row
}

var sinkElem fsm.Elem

// --- A3: index-accelerated query vs scan ---

// A3Row compares xpath evaluation with and without the value indices:
// the scan evaluator against the planner's forced index drive.
type A3Row struct {
	Dataset   string
	Query     string
	Hits      int
	ScanMS    float64
	IndexedMS float64
	SpeedupX  float64
}

// RunA3 runs a set of selective queries over one dataset.
func RunA3(cfg Config, dataset string) ([]A3Row, error) {
	p, err := cfg.prepare(dataset)
	if err != nil {
		return nil, err
	}
	ix := core.Build(p.doc, cfg.buildOpts(core.DefaultOptions()))
	queries := queriesFor(dataset)
	var rows []A3Row
	for _, q := range queries {
		parsed, err := xpath.Parse(q)
		if err != nil {
			return nil, fmt.Errorf("query %q: %v", q, err)
		}
		var scanNS, idxNS int64
		var hits int
		for r := 0; r < cfg.repeat(); r++ {
			start := time.Now()
			res := xpath.Evaluate(p.doc, parsed)
			scanNS += time.Since(start).Nanoseconds()
			hits = len(res)

			start = time.Now()
			res2, _, err := plan.Run(ix.Snapshot(), parsed, plan.ForceIndex)
			if err != nil {
				return nil, err
			}
			idxNS += time.Since(start).Nanoseconds()
			if len(res2) != hits {
				return nil, fmt.Errorf("query %q: indexed %d hits, scan %d", q, len(res2), hits)
			}
		}
		n := int64(cfg.repeat())
		row := A3Row{
			Dataset:   dataset,
			Query:     q,
			Hits:      hits,
			ScanMS:    float64(scanNS/n) / 1e6,
			IndexedMS: float64(idxNS/n) / 1e6,
		}
		if row.IndexedMS > 0 {
			row.SpeedupX = row.ScanMS / row.IndexedMS
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func queriesFor(dataset string) []string {
	switch dataset {
	case "xmark1", "xmark2", "xmark4", "xmark8":
		return []string{
			`//item[quantity = 7]`,
			`//person[profile/age = 42]`,
			`//open_auction[initial > 4990]`,
			`//item[location = "Amsterdam"]`,
		}
	case "epageo":
		return []string{
			`//facility[geo_coordinates/latitude > 48.9]`,
			`//facility[.//accuracy_value = 42]`,
		}
	case "dblp":
		return []string{
			`//article[year = 2004]`,
			`//article[volume > 38]`,
		}
	case "psd":
		return []string{
			`//ProteinEntry[reference/year = 1999]`,
			`//ProteinEntry[.//kilo = 50]`,
		}
	default: // wiki
		return []string{
			`//doc[pageid = 35]`,
			`//doc[title = "never matches anything"]`,
		}
	}
}

// --- A4: one-pass simultaneous creation vs separate passes ---

// A4Row compares building all indices in one document pass (the paper's
// design: "creating multiple defined indices can be done simultaneously
// with only one pass") against three single-index passes.
type A4Row struct {
	Dataset     string
	OnePassMS   float64
	ThreePassMS float64
	SpeedupX    float64
}

// RunA4 measures one dataset.
func RunA4(cfg Config, dataset string) (A4Row, error) {
	p, err := cfg.prepare(dataset)
	if err != nil {
		return A4Row{}, err
	}
	var oneNS, threeNS int64
	for r := 0; r < cfg.repeat(); r++ {
		start := time.Now()
		core.Build(p.doc, cfg.buildOpts(core.DefaultOptions()))
		oneNS += time.Since(start).Nanoseconds()

		start = time.Now()
		core.Build(p.doc, cfg.buildOpts(core.Options{String: true}))
		core.Build(p.doc, cfg.buildOpts(core.Options{Types: []core.TypeID{core.TypeDouble}}))
		core.Build(p.doc, cfg.buildOpts(core.Options{Types: []core.TypeID{core.TypeDateTime}}))
		threeNS += time.Since(start).Nanoseconds()
	}
	n := int64(cfg.repeat())
	row := A4Row{
		Dataset:     dataset,
		OnePassMS:   float64(oneNS/n) / 1e6,
		ThreePassMS: float64(threeNS/n) / 1e6,
	}
	if row.OnePassMS > 0 {
		row.SpeedupX = row.ThreePassMS / row.OnePassMS
	}
	return row, nil
}

// --- A5: commutative commit vs ancestor locking ---

// A5Row compares transaction throughput under the Section 5.1
// commutative protocol (leaf locks only) against full ancestor-chain
// locking, with contending workers updating disjoint leaves.
type A5Row struct {
	Workers          int
	TxnsPerWorker    int
	CommutativeMS    float64
	CommutativeAbort uint64
	LockingMS        float64
	LockingAbort     uint64
	SpeedupX         float64
}

// thinkWork simulates per-transaction application work performed while
// locks are held (the window in which ancestor locking serialises and the
// commutative protocol does not).
func thinkWork() uint32 {
	var buf [512]byte
	var h uint32
	for i := 0; i < 40; i++ {
		buf[i%len(buf)] = byte(i)
		h ^= vhash.Hash(buf[:])
	}
	return h
}

// buildA5Doc shreds the A5 workload document — a shared root over
// workers*txns disjoint text leaves — and returns the string index with
// the leaves' node ids.
func buildA5Doc(cfg Config, workers, txns int) (*core.Indexes, []xmltree.NodeID, error) {
	var sb []byte
	sb = append(sb, "<root>"...)
	for i := 0; i < workers*txns; i++ {
		sb = append(sb, fmt.Sprintf("<leaf>v%d</leaf>", i)...)
	}
	sb = append(sb, "</root>"...)
	doc, err := xmlparse.Parse(sb)
	if err != nil {
		return nil, nil, err
	}
	ix := core.Build(doc, cfg.buildOpts(core.Options{String: true}))
	var texts []xmltree.NodeID
	for i := 0; i < doc.NumNodes(); i++ {
		if doc.Kind(xmltree.NodeID(i)) == xmltree.Text {
			texts = append(texts, xmltree.NodeID(i))
		}
	}
	return ix, texts, nil
}

// RunA5 builds a wide document (shared root, disjoint leaves) and drives
// both managers with the same workload.
func RunA5(cfg Config, workers, txns int) (A5Row, error) {
	row := A5Row{Workers: workers, TxnsPerWorker: txns}

	// Per-worker sinks keep the anti-dead-code accumulation race free
	// (the workers run concurrently; a shared sinkHash ^= would be a data
	// race under -race); the fold into sinkHash happens after Wait.
	workerSinks := make([]uint32, workers)

	// Commutative: leaf locks only; conflicts impossible on disjoint
	// leaves.
	ix, texts, err := buildA5Doc(cfg, workers, txns)
	if err != nil {
		return row, err
	}
	mgr := txn.NewManager(ix)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				for {
					tx := mgr.Begin()
					if err := tx.SetText(texts[w*txns+i], fmt.Sprintf("c%d.%d", w, i)); err != nil {
						tx.Abort()
						continue
					}
					workerSinks[w] ^= thinkWork()
					if tx.Commit() == nil {
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()
	row.CommutativeMS = float64(time.Since(start).Nanoseconds()) / 1e6
	_, row.CommutativeAbort = mgr.Stats()

	// Ancestor locking: every transaction locks the root; contenders spin
	// on ErrConflict.
	ix2, texts2, err := buildA5Doc(cfg, workers, txns)
	if err != nil {
		return row, err
	}
	lmgr := txn.NewLockingManager(ix2)
	start = time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				for {
					tx := lmgr.Begin()
					if err := tx.SetText(texts2[w*txns+i], fmt.Sprintf("l%d.%d", w, i)); err != nil {
						tx.Abort()
						continue
					}
					workerSinks[w] ^= thinkWork()
					if tx.Commit() == nil {
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, s := range workerSinks {
		sinkHash ^= s
	}
	row.LockingMS = float64(time.Since(start).Nanoseconds()) / 1e6
	_, row.LockingAbort = lmgr.Stats()
	if row.CommutativeMS > 0 {
		row.SpeedupX = row.LockingMS / row.CommutativeMS
	}
	return row, nil
}
