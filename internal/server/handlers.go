package server

// The protocol handlers. Queries pin one snapshot per request; patches
// serialize per document and commit exactly once; watch streams tail
// the hub over server-sent events.

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	xmlvi "repro"
)

// maxBodyBytes bounds request bodies (patches carry XML fragments).
const maxBodyBytes = 8 << 20

// decodeBody parses the JSON request body into v, rejecting trailing
// garbage.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "invalid request body: "+err.Error())
		return false
	}
	return true
}

// --- query ---

// defaultResultLimit bounds serialized query results unless the request
// asks otherwise; Count always reports the full hit count.
const defaultResultLimit = 1000

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ds, status, code, msg := s.resolve(req.Doc)
	if ds == nil {
		writeError(w, status, code, msg)
		return
	}
	ds.queries.Add(1)
	if req.Query == "" {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "query is required")
		return
	}

	// Point-in-time: ?version=N answers against the historical state as
	// of version N (xmlvi.OpenAt over the document's durable pair),
	// pinned like any other query. min_version is meaningless against a
	// fixed historical version and is ignored.
	if v := r.URL.Query().Get("version"); v != "" {
		at, err := strconv.ParseUint(v, 10, 64)
		if err != nil || at == 0 {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "invalid version: "+v)
			return
		}
		hist, status, code, msg := ds.openAt(at)
		if hist == nil {
			writeError(w, status, code, msg)
			return
		}
		resp, ok := execQuery(w, ds, hist.Pin(), req)
		if !ok {
			return
		}
		resp.AsOf = Token(at)
		writeQuery(w, resp)
		return
	}

	// Read-your-writes: wait (bounded) until the client's token is
	// published, then pin. The hub observes versions after publication,
	// so a snapshot pinned after the wait is at least the token. On a
	// follower the hub observes applied leader commits, so min_version
	// with a leader patch token waits for replication to catch up —
	// read-your-writes across the pair.
	if req.MinVersion > 0 {
		deadline := time.NewTimer(s.cfg.MinVersionWait)
		defer deadline.Stop()
		for {
			ok, wake := ds.hub.published(uint64(req.MinVersion))
			if ok {
				break
			}
			select {
			case <-wake:
			case <-deadline.C:
				writeError(w, http.StatusGatewayTimeout, CodeTimeout,
					fmt.Sprintf("version %d not published within %s (current %d)",
						req.MinVersion, s.cfg.MinVersionWait, ds.hub.current()))
				return
			case <-r.Context().Done():
				return
			}
		}
	}

	pinned := ds.document().Pin()
	resp, ok := execQuery(w, ds, pinned, req)
	if !ok {
		return
	}
	if ds.follower != nil {
		leader := ds.follower.LeaderSeen()
		lag := uint64(0)
		if pv := pinned.Version(); leader > pv {
			lag = leader - pv
		}
		resp.Replica = &ReplicaInfo{LeaderVersion: Token(leader), Lag: lag}
	}
	writeQuery(w, resp)
}

// execQuery plans and executes one query against a pinned version,
// writing the error response itself on failure (ok=false).
func execQuery(w http.ResponseWriter, ds *docState, pinned *xmlvi.Pinned, req QueryRequest) (*queryAnswer, bool) {
	var (
		results []xmlvi.Result
		info    *ExplainInfo
		err     error
	)
	if req.Explain {
		var pl *xmlvi.Explain
		results, pl, err = pinned.Explain(req.Query)
		if err == nil {
			info = &ExplainInfo{Plan: pl.String(), UsesIndex: pl.UsesIndex(), EstCost: pl.EstCost}
		}
	} else {
		results, err = pinned.Query(req.Query)
	}
	if err != nil {
		if errors.Is(err, xmlvi.ErrUnsupportedPath) {
			writeError(w, http.StatusUnprocessableEntity, CodeUnsupportedPath, err.Error())
		} else {
			writeError(w, http.StatusBadRequest, CodeXPathParse, err.Error())
		}
		return nil, false
	}
	limit := req.Limit
	if limit <= 0 {
		limit = defaultResultLimit
	}
	return &queryAnswer{Doc: ds.name, Version: Token(pinned.Version()), Hits: results, Limit: limit, Explain: info}, true
}

// pitCacheLimit bounds the per-document cache of point-in-time opens; a
// full cache is simply dropped (opens are reconstructible).
const pitCacheLimit = 4

// openAt returns the document's state as of version, from the cache or
// by replaying the durable pair's log tail. The returned status/code/msg
// describe the failure when the document is nil.
func (ds *docState) openAt(version uint64) (doc *xmlvi.Document, status int, code, msg string) {
	if ds.opts.SnapshotPath == "" || ds.opts.WALPath == "" {
		return nil, http.StatusUnprocessableEntity, CodeNoHistory,
			"point-in-time queries need a document served from a durable snapshot+WAL pair"
	}
	ds.pitMu.Lock()
	defer ds.pitMu.Unlock()
	if d, ok := ds.pitCache[version]; ok {
		return d, 0, "", ""
	}
	d, err := xmlvi.OpenAt(ds.opts.SnapshotPath, ds.opts.WALPath, version)
	if err != nil {
		switch {
		case errors.Is(err, xmlvi.ErrVersionBeforeSnapshot):
			return nil, http.StatusGone, CodeVersionGone, err.Error()
		case errors.Is(err, xmlvi.ErrVersionInFuture):
			return nil, http.StatusNotFound, CodeVersionFuture, err.Error()
		default:
			return nil, http.StatusInternalServerError, CodeInternal, err.Error()
		}
	}
	if len(ds.pitCache) >= pitCacheLimit {
		ds.pitCache = nil
	}
	if ds.pitCache == nil {
		ds.pitCache = make(map[uint64]*xmlvi.Document)
	}
	ds.pitCache[version] = d
	return d, 0, "", ""
}

// --- patch ---

func (s *Server) handlePatch(w http.ResponseWriter, r *http.Request) {
	var req PatchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ds, status, code, msg := s.resolve(req.Doc)
	if ds == nil {
		writeError(w, status, code, msg)
		return
	}
	ds.patches.Add(1)
	if ds.follower != nil {
		writeError(w, http.StatusForbidden, CodeReadOnly,
			"document is a follower replica: patch the leader (its commit replicates here)")
		return
	}
	if len(req.Ops) == 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "ops must not be empty")
		return
	}
	// One patch, one commit: either a pure set_text batch (one
	// UpdateTexts call → one log record → one published version) or a
	// single structural/attribute op.
	allTexts := true
	for _, op := range req.Ops {
		if op.Op != "set_text" {
			allTexts = false
		}
	}
	if !allTexts && len(req.Ops) > 1 {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			"a patch is one commit: batch set_text ops freely, but set_attr/delete/insert must be the only op")
		return
	}

	// The precondition check and the commit must see no interleaved
	// patch; queries never take this lock. The success response is
	// encoded after it is released.
	version, err := func() (uint64, error) {
		ds.writeMu.Lock()
		defer ds.writeMu.Unlock()
		if req.IfVersion != nil && ds.doc.Version() != uint64(*req.IfVersion) {
			writeConflict(w, fmt.Sprintf("if_version %d does not match", *req.IfVersion), ds.doc.Version())
			return 0, errHandled
		}
		var err error
		if allTexts {
			err = s.applyTexts(w, ds, req.Ops)
		} else {
			err = s.applyOne(w, ds, req.Ops[0])
		}
		return ds.doc.Version(), err
	}()
	if err != nil {
		return // already answered
	}
	writeJSON(w, http.StatusOK, PatchResponse{
		Doc:     ds.name,
		Version: Token(version),
		Ops:     len(req.Ops),
	})
}

// errHandled signals "response already written" from the apply helpers.
var errHandled = errors.New("handled")

// applyTexts resolves and applies a set_text batch as one commit.
func (s *Server) applyTexts(w http.ResponseWriter, ds *docState, ops []PatchOp) error {
	updates := make([]xmlvi.TextUpdate, len(ops))
	for i, op := range ops {
		if op.Node == nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("ops[%d]: set_text requires node", i))
			return errHandled
		}
		n, ok := s.resolveTextTarget(ds, xmlvi.Node(*op.Node))
		if !ok {
			writeError(w, http.StatusBadRequest, CodeBadTarget,
				fmt.Sprintf("ops[%d]: node %d is not a text node or an element with exactly one text child", i, *op.Node))
			return errHandled
		}
		updates[i] = xmlvi.TextUpdate{Node: n, Value: op.Value}
	}
	if err := ds.doc.UpdateTexts(updates); err != nil {
		s.writeApplyError(w, ds, err)
		return errHandled
	}
	return nil
}

// resolveTextTarget maps a client-addressed node onto the text node a
// set_text op updates: a text node as-is, or an element whose only
// child is a text node (the common `<price>42</price>` shape).
func (s *Server) resolveTextTarget(ds *docState, n xmlvi.Node) (xmlvi.Node, bool) {
	if n < 0 || int(n) >= ds.doc.NumNodes() {
		return n, false
	}
	switch ds.doc.Kind(n) {
	case xmlvi.KindText:
		return n, true
	case xmlvi.KindElement:
		kids := ds.doc.Children(n)
		if len(kids) == 1 && ds.doc.Kind(kids[0]) == xmlvi.KindText {
			return kids[0], true
		}
	}
	return n, false
}

// applyOne applies a single structural or attribute op as one commit.
func (s *Server) applyOne(w http.ResponseWriter, ds *docState, op PatchOp) error {
	bad := func(format string, args ...any) error {
		writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf(format, args...))
		return errHandled
	}
	switch op.Op {
	case "set_attr":
		var a xmlvi.Attr
		switch {
		case op.Attr != nil:
			a = xmlvi.Attr(*op.Attr)
		case op.Node != nil && op.Name != "":
			if *op.Node < 0 || int(*op.Node) >= ds.doc.NumNodes() {
				writeError(w, http.StatusBadRequest, CodeBadTarget,
					fmt.Sprintf("set_attr: node %d out of range", *op.Node))
				return errHandled
			}
			a = ds.doc.FindAttr(xmlvi.Node(*op.Node), op.Name)
			if a < 0 {
				writeError(w, http.StatusBadRequest, CodeBadTarget,
					fmt.Sprintf("set_attr: node %d has no attribute %q", *op.Node, op.Name))
				return errHandled
			}
		default:
			return bad("set_attr requires attr, or node and name")
		}
		if err := ds.doc.UpdateAttr(a, op.Value); err != nil {
			s.writeApplyError(w, ds, err)
			return errHandled
		}
	case "delete":
		if op.Node == nil {
			return bad("delete requires node")
		}
		if err := ds.doc.Delete(xmlvi.Node(*op.Node)); err != nil {
			s.writeApplyError(w, ds, err)
			return errHandled
		}
	case "insert":
		if op.Node == nil || op.XML == "" {
			return bad("insert requires node (the parent) and xml")
		}
		if _, err := ds.doc.InsertXML(xmlvi.Node(*op.Node), op.Pos, op.XML); err != nil {
			s.writeApplyError(w, ds, err)
			return errHandled
		}
	default:
		return bad("unknown op %q (want set_text, set_attr, delete, or insert)", op.Op)
	}
	return nil
}

// writeApplyError maps a document mutation error onto the protocol: a
// transaction conflict is a 409 (retry at the current version),
// anything else is a rejected target — the mutators validate before
// committing, so a failed apply left no commit behind.
func (s *Server) writeApplyError(w http.ResponseWriter, ds *docState, err error) {
	if errors.Is(err, xmlvi.ErrConflict) {
		writeConflict(w, err.Error(), ds.doc.Version())
		return
	}
	writeError(w, http.StatusBadRequest, CodeBadTarget, err.Error())
}

// --- watch ---

// watchHeartbeat is the idle-stream comment interval keeping proxies
// and dead-connection detection alive.
const watchHeartbeat = 15 * time.Second

func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	ds, status, code, msg := s.resolve(r.URL.Query().Get("doc"))
	if ds == nil {
		writeError(w, status, code, msg)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, CodeInternal, "streaming unsupported")
		return
	}
	withPayload := r.URL.Query().Get("payload") == "1"
	from := ds.hub.current()
	if f := r.URL.Query().Get("from"); f != "" {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "invalid from token: "+f)
			return
		}
		from = v
	}
	// Reject an already-evicted resume token with a status code while we
	// still can; past-window eviction mid-stream becomes an SSE error
	// event below.
	if _, _, err := ds.hub.get(from + 1); errors.Is(err, errResumeGone) {
		writeError(w, http.StatusGone, CodeResumeGone,
			fmt.Sprintf("version %d is older than the watch retention window", from))
		return
	}

	ds.watches.Add(1)
	ds.hub.addWatcher()
	defer ds.hub.removeWatcher()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	writeEvent(w, "hello", 0, WatchHello{
		Doc: ds.name, Version: Token(from), Current: Token(ds.hub.current()),
	})
	flusher.Flush()

	heartbeat := time.NewTicker(watchHeartbeat)
	defer heartbeat.Stop()
	next := from + 1
	for {
		c, wake, err := ds.hub.get(next)
		switch {
		case errors.Is(err, errResumeGone):
			writeEvent(w, "error", 0, ErrorInfo{Code: CodeResumeGone,
				Message: fmt.Sprintf("stream fell behind: version %d evicted from the retention window", next)})
			flusher.Flush()
			return
		case errors.Is(err, errHubClosed):
			return
		case wake != nil:
			select {
			case <-wake:
			case <-r.Context().Done():
				return
			case <-heartbeat.C:
				fmt.Fprint(w, ": ping\n\n")
				flusher.Flush()
			}
			continue
		}
		ev := WatchEvent{
			Version: Token(c.Version),
			Kind:    c.Kind,
			Ops:     c.Ops,
		}
		if withPayload {
			ev.Payload = base64.StdEncoding.EncodeToString(c.Payload)
		}
		writeEvent(w, "change", c.Version, ev)
		flusher.Flush()
		next = c.Version + 1
	}
}

// writeEvent writes one server-sent event; id 0 means no id line.
func writeEvent(w http.ResponseWriter, event string, id uint64, data any) {
	b, err := json.Marshal(data)
	if err != nil {
		return
	}
	if id > 0 {
		fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", event, id, b)
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
}

// --- snapshot ---

// handleSnapshot streams a generation-0 snapshot of the document's
// current version (GET /v1/snapshot?doc=NAME). The version is pinned for
// the whole transfer and reported in X-Xvid-Version; a follower seeding
// itself loads the body with xmlvi.LoadWithOptions and subscribes to
// /v1/watch?from=<that version> — together they hand over the full state
// plus the live log with no gap.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	ds, status, code, msg := s.resolve(r.URL.Query().Get("doc"))
	if ds == nil {
		writeError(w, status, code, msg)
		return
	}
	pinned := ds.document().Pin()

	// Serialize through a temp file: Pinned.Save wants a path, and the
	// file gives us a Content-Length up front.
	tmp, err := os.CreateTemp("", "xvid-seed-*.xvi")
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	defer os.Remove(tmp.Name())
	defer tmp.Close()
	if err := pinned.Save(tmp.Name()); err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	fi, err := tmp.Stat()
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}

	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.FormatInt(fi.Size(), 10))
	h.Set("X-Xvid-Version", strconv.FormatUint(pinned.Version(), 10))
	w.WriteHeader(http.StatusOK)
	io.Copy(w, tmp) //nolint:errcheck // the connection owns delivery
}

// --- stats, health ---

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	resp := StatsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Docs:          make(map[string]DocStats),
	}
	for _, ds := range s.docStates() {
		doc := ds.document()
		st := DocStats{
			Version:       Token(doc.Version()),
			Nodes:         doc.NumNodes(),
			Watchers:      ds.hub.watcherCount(),
			Queries:       ds.queries.Load(),
			Patches:       ds.patches.Load(),
			Watches:       ds.watches.Load(),
			Durable:       doc.Durable(),
			WALGeneration: doc.WALGeneration(),
			Role:          "leader",
			Index:         doc.Stats(),
			Mem:           doc.MemStats(),
		}
		if ds.follower != nil {
			st.Role = "follower"
			leader := ds.follower.LeaderSeen()
			lag := uint64(0)
			if v := uint64(st.Version); leader > v {
				lag = leader - v
			}
			st.Replica = &ReplicaInfo{LeaderVersion: Token(leader), Lag: lag}
		}
		resp.Docs[ds.name] = st
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
