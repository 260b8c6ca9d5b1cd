package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	xmlvi "repro"
	"repro/bench/layers"
)

// The traced run. It serves the workload twice for a quarter of the window
// each, with the span middleware off and then on, which gives the tracing
// overhead, the process counters and the served tails. Then, on a fresh
// instance, it replays the start of the request stream in passes: over
// HTTP (client and handler spans), through the same handler called in
// process, through the public calls the handler makes (decode, query,
// materialise, encode), and through the layers beneath Document.Query on a
// twin build of the same XML (parse, prepare, execute, posting iteration).
// Patches are replayed against a second durable document, an in-memory one
// and a transaction. Fixed-input probes of the B+tree, the log and the
// value hash come last. The spans go to out/<workload>.trace.json.

const (
	replayPointReads = 1000 // replayed queries of the point mix
	replayScanReads  = 200  // replayed queries of the scan mix, about 15x dearer each
	replayPatches    = 120  // replayed patches, full mix
	scanSample       = 40   // distinct queries scanned for xpath.scan_us and plan.index_slower_frac
	structuralPairs  = 10   // core.insert / core.delete pairs on the twin
	smallScale       = 0.25 // the document that fits in cache, for core.commit_scale_ratio
	smallCommits     = 200
)

// spanMeans are the per-layer metrics that are the mean duration of one
// span name over the replay, in microseconds.
var spanMeans = map[string]string{
	"server.handler_us":       "server.handler",
	"server.inproc_us":        "server.inproc",
	"xmlvi.query_us":          "xmlvi.query",
	"xmlvi.materialize_us":    "xmlvi.materialize",
	"xpath.parse_us":          "xpath.parse",
	"plan.prepare_us":         "plan.prepare",
	"plan.execute_us":         "plan.execute",
	"xpath.scan_us":           "xpath.scan",
	"core.iter_us":            "core.iter",
	"core.lookup_us":          "core.lookup",
	"server.patch_handler_us": "server.patch_handler",
	"xmlvi.update_mem_us":     "xmlvi.update_mem",
	"txn.commit_us":           "txn.commit",
	"core.insert_us":          "core.insert",
	"core.delete_us":          "core.delete",
}

// traced is the state of one traced run.
type traced struct {
	rec    *recorder
	out    *outcome
	m      map[string]float64
	kindOf map[int]string // request id -> patch kind
	// replayFrom is the number of spans the served windows recorded; the
	// replay's statistics start after them.
	replayFrom int
}

// spans returns the replay's spans.
func (t *traced) spans() []span { return t.rec.all()[t.replayFrom:] }

func runTraced(w workload, seed int64, window time.Duration, outDir string, log io.Writer) (*outcome, error) {
	t := &traced{rec: newRecorder(), out: &outcome{measured: map[string]float64{}}, kindOf: map[int]string{}}
	t.m = t.out.measured
	if err := t.servedWindows(w, seed, window, outDir, log); err != nil {
		return nil, err
	}
	if err := t.replay(w, seed, outDir, log); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, w.Name+".trace.json")
	if err := t.rec.write(path); err != nil {
		return nil, err
	}
	t.out.notes = append(t.out.notes, fmt.Sprintf("%d spans written to %s", len(t.rec.all()), path))
	return t.out, nil
}

// servedWindows runs the workload untraced and traced on one instance.
func (t *traced) servedWindows(w workload, seed int64, window time.Duration, outDir string, log io.Writer) error {
	in, took, err := setUp(filepath.Join(outDir, "traced-served"), docScale, seed, t.rec.middleware)
	if err != nil {
		return err
	}
	defer in.tearDown() //nolint:errcheck // the run's outcome is already decided
	e, err := newEnv(in, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(log, "%s seed %d, traced: %d nodes, set-up %.3f s\n", w.Name, seed, e.dom.Nodes, took.Seconds())
	ms := in.doc.MemStats()
	nodes := float64(ms.Nodes)
	t.m["mem.doc_bytes_per_node"] = float64(ms.DocBytes) / nodes
	t.m["mem.tree_bytes_per_node"] = float64(ms.StringTreeBytes+ms.TypedTreeBytes) / nodes
	t.m["mem.substr_bytes_per_node"] = float64(ms.SubstrTreeBytes) / nodes

	spec := e.spec(w)
	spec.dur = window / 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain, _ := e.measure(spec, phaseSpec{}, t.out, nil)
	runtime.ReadMemStats(&after)
	ops := float64(plain.attempted)
	t.m["go.alloc_kb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / max(ops, 1)
	t.m["go.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	t.m["go.heap_mb_end"] = float64(after.HeapAlloc) / (1 << 20)

	t.rec.on.Store(true)
	withSpans, _ := e.measure(spec, phaseSpec{}, t.out, nil)
	t.rec.on.Store(false)

	// Tails and lateness come from the untraced window; a workload without
	// readers or writers gets them from a probe, as in the untraced run.
	t.m["gen.late_frac"] = 0
	rate := func(st *phaseStats) float64 { return median(st.readRates) }
	if w.Readers == 0 {
		rate = func(st *phaseStats) float64 { return median(st.patchRates) }
		probe, _ := e.measure(e.readProbe(), phaseSpec{}, t.out, nil)
		readMetrics(t.m, probe, &t.out.notes, "probe")
	} else {
		readMetrics(t.m, plain, &t.out.notes, "untraced window")
	}
	if w.Writers == 0 && w.PacedHz == 0 {
		probe, _ := e.measure(e.writeProbe(), phaseSpec{}, t.out, nil)
		patchMetrics(t.m, probe, &t.out.notes, "probe")
	} else {
		patchMetrics(t.m, plain, &t.out.notes, "untraced window")
	}
	t.m["trace.overhead_frac"] = 1 - rate(withSpans)/rate(plain)
	t.out.notes = append(t.out.notes, fmt.Sprintf("overhead: %.1f ops/s untraced, %.1f ops/s with handler spans", rate(plain), rate(withSpans)))
	return nil
}

// replay runs the request stream's start through every layer, one request
// at a time, on a fresh instance and three more builds of the same XML:
// the twin on internal/core, a second durable document, and an in-memory
// document.
func (t *traced) replay(w workload, seed int64, outDir string, log io.Writer) error {
	t.replayFrom = len(t.rec.all())
	dir := filepath.Join(outDir, "traced-replay")
	in, _, err := setUp(dir, docScale, seed, t.rec.middleware)
	if err != nil {
		return err
	}
	defer in.tearDown() //nolint:errcheck // the run's outcome is already decided
	e, err := newEnv(in, seed)
	if err != nil {
		return err
	}

	// The set-up layers, one span each, and with them the twin.
	setupReq := t.rec.newRequest()
	root := t.rec.begin("setup", 0, setupReq)
	var raw []byte
	t.rec.under(root, setupReq)("datagen.generate", func() { raw, err = layers.Generate(docScale, seed) })
	if err != nil {
		return err
	}
	twin, err := layers.BuildTwin(raw, filepath.Join(dir, "twin.xvi"), filepath.Join(dir, "twin.wal"), t.rec.under(root, setupReq))
	if err != nil {
		return err
	}
	t.rec.end(root)
	setup := summarise(t.spans(), func(s span) bool { return s.Request == setupReq })
	t.m["datagen.generate_ms"] = setup.meanUS("datagen.generate") / 1e3
	t.m["xmlparse.parse_mb_s"] = float64(len(raw)) / (1 << 20) / setup.total["xmlparse.parse"].Seconds()
	t.m["core.build_ms"] = setup.meanUS("core.build") / 1e3
	t.m["core.substr_build_ms"] = setup.meanUS("core.substr_build") / 1e3
	t.m["core.save_ms"] = setup.meanUS("core.save") / 1e3
	t.m["core.open_durable_ms"] = setup.meanUS("core.open_durable") / 1e3
	t.m["core.verify_ms"] = setup.meanUS("core.verify") / 1e3
	emptyOpen := setup.total["core.open_durable"]

	t.rec.on.Store(true)
	defer t.rec.on.Store(false)
	if err := t.replayReads(w, e, twin); err != nil {
		return err
	}
	if err := t.scanAndPlanQuality(w, e, twin); err != nil {
		return err
	}
	if err := t.replayPatches(e, raw, dir, emptyOpen); err != nil {
		return err
	}
	if err := t.structural(e, twin); err != nil {
		return err
	}
	if err := t.commitScale(seed); err != nil {
		return err
	}

	all := summarise(t.spans(), nil)
	for metric, name := range spanMeans {
		t.m[metric] = all.meanUS(name)
	}
	t.m["core.commit_scale_ratio"] = t.m["xmlvi.update_mem_us"] / all.meanUS("xmlvi.update_small")

	bt := layers.BTree(seed)
	t.m["btree.seek_ns"], t.m["btree.next_ns"], t.m["btree.bytes_per_entry"] = bt.SeekNS, bt.NextNS, bt.BytesPerEntry
	t.m["btree.insert_us"], t.m["btree.delete_us"], t.m["btree.clone_insert_us"] = bt.InsertUS, bt.DeleteUS, bt.CloneInsertUS
	wal, err := layers.WAL(filepath.Join(dir, "probe.wal"))
	if err != nil {
		return err
	}
	t.m["storage.wal_append_us"], t.m["storage.wal_sync_us"] = wal.AppendUS, wal.SyncUS
	vh := layers.VHash(raw[:min(len(raw), 1<<20)])
	t.m["vhash.hash_ns_per_byte"], t.m["vhash.combine_ns"] = vh.HashNSPerByte, vh.CombineNS

	t.identity(w, log)
	return nil
}

// send posts body with the headers that tie the handler span to the client
// span, and returns the response body.
func (t *traced) send(in *instance, path string, body []byte, parent, request int) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, in.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(headerParent, strconv.Itoa(parent))
	req.Header.Set(headerRequest, strconv.Itoa(request))
	resp, err := in.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	answer, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(answer))
	}
	return answer, err
}

// discard is a ResponseWriter that drops the body.
type discard struct {
	header http.Header
	status int
}

func (d *discard) Header() http.Header         { return d.header }
func (d *discard) Write(b []byte) (int, error) { return len(b), nil }
func (d *discard) WriteHeader(status int)      { d.status = status }

// serveInProcess calls the protocol handler with an in-memory request.
func serveInProcess(h http.Handler, path string, body []byte) error {
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	w := &discard{header: http.Header{}}
	h.ServeHTTP(w, req)
	if w.status != 0 && w.status != http.StatusOK {
		return fmt.Errorf("status %d", w.status)
	}
	return nil
}

// decodeLikeServer parses a request body as the server does: strictly.
func decodeLikeServer(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// encodeLikeServer writes v as the server does: indented JSON.
func encodeLikeServer(v any) error {
	enc := json.NewEncoder(io.Discard)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func (t *traced) replayReads(w workload, e *env, twin *layers.Twin) error {
	n := replayPointReads
	if w.Scan {
		n = replayScanReads
	}
	stream := e.mix(w).stream(e.seed, 0)
	reqs := make([]*readReq, n)
	ids := make([]int, n)
	for i := range reqs {
		reqs[i], ids[i] = stream.next(), t.rec.newRequest()
	}
	t.out.attempted += n

	// Pass 1: over HTTP. The passes each go through the whole stream, so
	// that a request finds the caches as far from its own data in every
	// pass; replaying a request right after sending it would always find
	// them warm and come out faster than the handler it is compared with.
	served := make([]int, n)
	respBytes := 0
	for i, req := range reqs {
		rt := t.rec.begin("client.roundtrip", 0, ids[i])
		answer, err := t.send(e.in, "/v1/query", req.Body, rt, ids[i])
		t.rec.end(rt)
		if err != nil {
			return fmt.Errorf("traced query %s: %w", req.Query, err)
		}
		respBytes += len(answer)
		var resp queryResponse
		if err := json.Unmarshal(answer, &resp); err != nil {
			return fmt.Errorf("traced query %s: %w", req.Query, err)
		}
		served[i] = resp.Count
	}

	// Pass 2: the same handler called in process, with the body in memory
	// and the response discarded: the handler without its sockets.
	for i, req := range reqs {
		var err error
		t.rec.under(0, ids[i])("server.inproc", func() { err = serveInProcess(e.in.handler, "/v1/query", req.Body) })
		if err != nil {
			return fmt.Errorf("in-process query %s: %w", req.Query, err)
		}
	}

	// Pass 3: the public calls the handler makes.
	version := token(e.in.doc.Version())
	replayed := make([]int, n)
	for i, req := range reqs {
		rp := t.rec.begin("replay.handler", 0, ids[i])
		span := t.rec.under(rp, ids[i])
		var (
			qr   queryRequest
			hits []xmlvi.Result
			err  error
		)
		span("server.decode", func() { err = decodeLikeServer(req.Body, &qr) })
		if err != nil {
			return err
		}
		span("xmlvi.query", func() { hits, err = e.in.doc.Pin().Query(qr.Query) })
		if err != nil {
			return fmt.Errorf("replayed query %s: %w", req.Query, err)
		}
		resp := queryResponse{Doc: "auction", Version: version, Count: len(hits)}
		span("xmlvi.materialize", func() {
			resp.Results = make([]resultItem, 0, min(len(hits), resultLimit))
			for _, h := range hits[:min(len(hits), resultLimit)] {
				item := resultItem{Node: int32(h.Node), Attr: -1, IsAttr: h.IsAttr, Name: h.Name(), Value: h.Value(), Path: h.Path()}
				if h.IsAttr {
					item.Attr = int32(h.Attr)
				}
				resp.Results = append(resp.Results, item)
			}
			resp.Truncated = len(hits) > resultLimit
		})
		span("server.encode", func() { err = encodeLikeServer(resp) })
		if err != nil {
			return err
		}
		t.rec.end(rp)
		replayed[i] = len(hits)
	}

	// Pass 4: the layers beneath Document.Query, on the twin.
	var (
		postings, results, usesIndex int
		ratios                       []float64
	)
	for i, req := range reqs {
		rq := t.rec.begin("replay.query", 0, ids[i])
		info, err := twin.Query(req.Query, t.rec.under(rq, ids[i]))
		t.rec.end(rq)
		if err != nil {
			return fmt.Errorf("twin query %s: %w", req.Query, err)
		}
		if served[i] != replayed[i] || info.Results != replayed[i] {
			t.out.failed++
			t.out.errs = append(t.out.errs, fmt.Sprintf("%s: served %d hits, replay %d, twin %d", req.Query, served[i], replayed[i], info.Results))
		}
		if info.UsesIndex {
			usesIndex++
			postings += info.Postings
			results += info.Results
		}
		if info.EstRows > 0 && info.Results > 0 {
			ratios = append(ratios, info.EstRows/float64(info.Results))
		}
	}

	// Pass 5: the index condition of each query, without the planner.
	for i, req := range reqs {
		if req.Cond != nil {
			if err := twin.Probe(*req.Cond, t.rec.under(0, ids[i])); err != nil {
				return err
			}
		}
	}

	t.m["server.resp_bytes"] = float64(respBytes) / float64(n)
	t.m["plan.uses_index_frac"] = float64(usesIndex) / float64(n)
	t.m["core.postings_per_result"] = float64(postings) / float64(max(results, 1))
	t.m["plan.est_over_actual_p50"] = median(ratios)
	off := 0
	for _, r := range ratios {
		if r < 0.5 || r > 2 {
			off++
		}
	}
	t.m["plan.misestimate_frac"] = float64(off) / float64(max(len(ratios), 1))

	spans := t.spans()
	self := selfTimes(spans)
	var net time.Duration
	for _, s := range spans {
		if s.Name == "client.roundtrip" {
			net += self[s.ID]
		}
	}
	t.m["server.net_us"] = us(net) / float64(n)
	return nil
}

// scanAndPlanQuality scans a sample of the mix's distinct queries
// (xpath.scan_us) and counts the indexed ones the forced scan beats by
// more than 20 %, each side timed as the best of three.
func (t *traced) scanAndPlanQuality(w workload, e *env, twin *layers.Twin) error {
	queries := e.mix(w).distinct()
	step := max(len(queries)/scanSample, 1)
	indexed, slower := 0, 0
	id := t.rec.newRequest()
	for i := 0; i < len(queries); i += step {
		q := queries[i].Query
		if err := twin.Scan(q, t.rec.under(0, id)); err != nil {
			return err
		}
		if queries[i].Cond == nil {
			continue
		}
		best := func(forceScan bool) (time.Duration, error) {
			least := time.Duration(1 << 62)
			for r := 0; r < 3; r++ {
				d, err := twin.TimeQuery(q, forceScan)
				if err != nil {
					return 0, err
				}
				least = min(least, d)
			}
			return least, nil
		}
		chosen, err := best(false)
		if err != nil {
			return err
		}
		scan, err := best(true)
		if err != nil {
			return err
		}
		indexed++
		if float64(scan)*1.2 < float64(chosen) {
			slower++
		}
	}
	t.m["plan.index_slower_frac"] = float64(slower) / float64(max(indexed, 1))
	return nil
}

// apply performs one filled patch on doc through the public API, as the
// handler does: set_text resolves each element to its text child.
func apply(doc *xmlvi.Document, p patchReq) error {
	op := p.Ops[0]
	switch p.Kind {
	case kindSetAttr:
		return doc.UpdateAttr(doc.FindAttr(xmlvi.Node(*op.Node), op.Name), op.Value)
	case kindInsert:
		_, err := doc.InsertXML(xmlvi.Node(*op.Node), op.Pos, op.XML)
		return err
	case kindDelete:
		return doc.Delete(xmlvi.Node(*op.Node))
	}
	return doc.UpdateTexts(textUpdates(doc, p))
}

func textUpdates(doc *xmlvi.Document, p patchReq) []xmlvi.TextUpdate {
	updates := make([]xmlvi.TextUpdate, len(p.Ops))
	for i, op := range p.Ops {
		updates[i] = xmlvi.TextUpdate{Node: doc.Children(xmlvi.Node(*op.Node))[0], Value: op.Value}
	}
	return updates
}

// replayPatches sends the write-durable stream's start to the served
// instance and applies each patch, in step, to a second durable document
// (the handler's work without HTTP) and, for text batches, to an in-memory
// one (the same without the log) and through a transaction.
func (t *traced) replayPatches(e *env, raw []byte, dir string, emptyOpen time.Duration) error {
	snapshot, walPath := filepath.Join(dir, "second.xvi"), filepath.Join(dir, "second.wal")
	inMem, durable, err := buildDurable(raw, snapshot, walPath)
	if err != nil {
		return err
	}
	defer durable.Close()
	walBefore, err := fileSize(walPath)
	if err != nil {
		return err
	}

	stream := newPatchStream(e.dom, e.seed, 0, true)
	tail := e.traffic.tail
	var allocKB []float64
	for i := 0; i < replayPatches; i++ {
		p := stream.next()
		if p.Kind == kindInsert || p.Kind == kindDelete {
			tail.fill(&p)
		}
		id := t.rec.newRequest()
		t.kindOf[id] = p.Kind
		t.out.attempted++
		body, err := json.Marshal(patchRequest{Ops: p.Ops})
		if err != nil {
			return err
		}

		rt := t.rec.begin("client.patch_roundtrip", 0, id)
		_, err = t.send(e.in, "/v1/patch", body, rt, id)
		t.rec.end(rt)
		if err != nil {
			return fmt.Errorf("traced patch %s: %w", p.Kind, err)
		}

		rp := t.rec.begin("replay.patch_handler", 0, id)
		span := t.rec.under(rp, id)
		var pr patchRequest
		span("server.decode", func() { err = decodeLikeServer(body, &pr) })
		if err != nil {
			return err
		}
		span("xmlvi.update_durable", func() { err = apply(durable, p) })
		if err != nil {
			return fmt.Errorf("replayed patch %s: %w", p.Kind, err)
		}
		span("server.encode", func() {
			err = encodeLikeServer(patchResponse{Doc: "auction", Version: token(durable.Version()), Ops: len(p.Ops)})
		})
		if err != nil {
			return err
		}
		t.rec.end(rp)

		if p.Kind == kindInsert || p.Kind == kindDelete {
			tail.done(p.Kind)
		}
		if p.Kind != kindSetText {
			continue
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t.rec.under(0, id)("xmlvi.update_mem", func() { err = inMem.UpdateTexts(textUpdates(inMem, p)) })
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		allocKB = append(allocKB, float64(after.TotalAlloc-before.TotalAlloc)/1024)
		t.rec.under(0, id)("txn.commit", func() {
			tx := inMem.Begin()
			for _, u := range textUpdates(inMem, p) {
				if err = tx.SetText(u.Node, u.Value); err != nil {
					tx.Abort()
					return
				}
			}
			err = tx.Commit()
		})
		if err != nil {
			return err
		}
	}
	if e.in.doc.Version() != durable.Version() {
		t.out.failed++
		t.out.errs = append(t.out.errs, fmt.Sprintf("after %d patches the served document is at version %d, the replayed one at %d",
			replayPatches, e.in.doc.Version(), durable.Version()))
	}

	walAfter, err := fileSize(walPath)
	if err != nil {
		return err
	}
	t.m["storage.wal_bytes_per_commit"] = float64(walAfter-walBefore) / replayPatches
	t.m["core.commit_alloc_kb"] = mean(allocKB)

	// Recovery of the pair the replay just wrote: the time beyond opening
	// the same snapshot with an empty log is the replay of its records.
	if err := durable.Close(); err != nil {
		return err
	}
	id := t.rec.newRequest()
	reopen := t.rec.begin("reopen", 0, id)
	records, err := layers.OpenDurable(snapshot, walPath, t.rec.under(reopen, id))
	t.rec.end(reopen)
	if err != nil {
		return err
	}
	reopened := summarise(t.spans(), func(s span) bool { return s.Request == id }).total["core.open_durable"]
	t.m["core.replay_us_per_rec"] = max(us(reopened-emptyOpen), 0) / float64(max(records, 1))
	if records != replayPatches {
		t.out.failed++
		t.out.errs = append(t.out.errs, fmt.Sprintf("recovery replayed %d records, %d patches were committed", records, replayPatches))
	}

	byKind := func(kind string) spanStats {
		return summarise(t.spans(), func(s span) bool { return t.kindOf[s.Request] == kind })
	}
	for _, kind := range []string{kindSetText, kindSetAttr, kindInsert, kindDelete} {
		t.m["server.patch_"+kind+"_us"] = byKind(kind).meanUS("server.patch_handler")
	}
	t.m["xmlvi.update_durable_us"] = byKind(kindSetText).meanUS("xmlvi.update_durable")
	return nil
}

// structural times fragment inserts and deletes on the twin, at the
// document's tail like the served ones.
func (t *traced) structural(e *env, twin *layers.Twin) error {
	stream := newPatchStream(e.dom, e.seed, 1, true)
	id := t.rec.newRequest()
	for i := 0; i < structuralPairs; i++ {
		stream.fragments++
		at, err := twin.Insert(e.dom.TailParent, e.dom.TailChildren, stream.fragment(), t.rec.under(0, id))
		if err != nil {
			return err
		}
		if err := twin.Delete(at, t.rec.under(0, id)); err != nil {
			return err
		}
	}
	return nil
}

// commitScale commits text batches on a document small enough to sit in
// cache. A commit that costs O(change) takes as long there as on the
// served document; one that copies the document takes scale times less.
func (t *traced) commitScale(seed int64) error {
	raw, err := layers.Generate(smallScale, seed)
	if err != nil {
		return err
	}
	small, err := xmlvi.ParseWithOptions(raw, xmlvi.Options{})
	if err != nil {
		return err
	}
	small.EnableSubstringIndex()
	dom, err := collectDomain(small)
	if err != nil {
		return err
	}
	stream := newPatchStream(dom, seed, 0, false)
	id := t.rec.newRequest()
	for i := 0; i < smallCommits; i++ {
		updates := textUpdates(small, stream.next())
		t.rec.under(0, id)("xmlvi.update_small", func() { err = small.UpdateTexts(updates) })
		if err != nil {
			return err
		}
	}
	return nil
}

// identity is the traced run's check that the layers account for the
// request: the replayed children of the handler, summed, against the
// handler spans the middleware took — for queries, and for write-durable
// for patches.
func (t *traced) identity(w workload, log io.Writer) {
	handler, replayed := "server.inproc", "replay.handler"
	if w.Readers == 0 {
		handler, replayed = "server.patch_handler", "replay.patch_handler"
	}
	spans := t.spans()
	nameOf := make(map[int]string, len(spans))
	for _, s := range spans {
		nameOf[s.ID] = s.Name
	}
	// decode and encode spans belong to queries or to patches by their
	// parent; they are reported for the side the identity is taken on.
	children := summarise(spans, func(s span) bool { return nameOf[s.Parent] == replayed })
	t.m["server.decode_us"] = children.meanUS("server.decode")
	t.m["server.encode_us"] = children.meanUS("server.encode")

	// The identity is taken request by request and its median reported: one
	// collection or one descheduled goroutine inside a handler span would
	// otherwise decide the ratio of the totals.
	replayedFor, servedFor := map[int]time.Duration{}, map[int]time.Duration{}
	var sum, served time.Duration
	for _, s := range spans {
		switch {
		case nameOf[s.Parent] == replayed:
			replayedFor[s.Request] += s.duration()
			sum += s.duration()
		case s.Name == handler:
			servedFor[s.Request] += s.duration()
			served += s.duration()
		}
	}
	var ratios []float64
	for request, d := range servedFor {
		ratios = append(ratios, float64(replayedFor[request])/float64(max(d, 1)))
	}
	ratio := median(ratios)
	t.m["trace.sum_over_handler"] = ratio
	verdict := "PASS"
	if ratio < 0.85 || ratio > 1.15 {
		verdict = "WARN: outside [0.85, 1.15]"
	}
	fmt.Fprintf(log, "  identity: children of %s / %s: median over %d requests %.3f, of the totals %.1f ms / %.1f ms = %.3f  %s\n",
		replayed, handler, len(ratios), ratio, ms(sum), ms(served), float64(sum)/float64(max(served, 1)), verdict)
}
