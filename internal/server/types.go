package server

// Wire types of the xvid HTTP/JSON protocol. Version tokens are opaque
// strings on the wire (decimal commit-sequence numbers today) so clients
// treat them as resumable cursors, not arithmetic.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	xmlvi "repro"
	"repro/internal/core"
)

// Token is a commit-sequence version token: the MVCC publication
// sequence number of a committed state. Tokens are returned by every
// query and patch, order commits, and feed read-your-writes
// (QueryRequest.MinVersion) and WATCH resume (?from=). They marshal as
// JSON strings ("42") but are accepted as numbers too.
type Token uint64

// MarshalJSON renders the token as a decimal string.
func (t Token) MarshalJSON() ([]byte, error) {
	return []byte(`"` + strconv.FormatUint(uint64(t), 10) + `"`), nil
}

// UnmarshalJSON accepts "42" or 42.
func (t *Token) UnmarshalJSON(b []byte) error {
	s := string(b)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		s = s[1 : len(s)-1]
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return fmt.Errorf("invalid version token %s", string(b))
	}
	*t = Token(v)
	return nil
}

// QueryRequest is the body of POST /v1/query.
type QueryRequest struct {
	// Doc names the served document; may be omitted when the server
	// serves exactly one.
	Doc string `json:"doc,omitempty"`
	// Query is the XPath expression (see the README's dialect section).
	Query string `json:"query"`
	// Explain additionally returns the executed plan tree with the
	// planner's estimated vs actual row counts.
	Explain bool `json:"explain,omitempty"`
	// MinVersion, when set, is a read-your-writes floor: the query only
	// runs against a pinned snapshot whose version is >= this token
	// (waiting briefly for it if necessary), so a client that just
	// patched always sees its own commit.
	MinVersion Token `json:"min_version,omitempty"`
	// Limit bounds the serialized results (default 1000; Count always
	// reports the full hit count).
	Limit int `json:"limit,omitempty"`
}

// ResultItem is one query hit.
type ResultItem struct {
	// Node is the tree node id of the hit at the response's version (or
	// the owning element for attribute hits). Node ids are positional:
	// they stay valid until the next structural commit (delete/insert),
	// which is why patches take an if_version precondition.
	Node int32 `json:"node"`
	// Attr is the attribute id for attribute hits, -1 otherwise.
	Attr   int32  `json:"attr"`
	IsAttr bool   `json:"is_attr,omitempty"`
	Name   string `json:"name,omitempty"`
	Value  string `json:"value"`
	Path   string `json:"path"`
}

// ExplainInfo is the executed plan of an explain query.
type ExplainInfo struct {
	// Plan is the printable operator tree; each operator carries the
	// planner's cardinality estimate next to the observed actual.
	Plan      string  `json:"plan"`
	UsesIndex bool    `json:"uses_index"`
	EstCost   float64 `json:"est_cost"`
}

// ReplicaInfo reports a follower's replication position alongside a
// query answered by it.
type ReplicaInfo struct {
	// LeaderVersion is the highest leader version the follower has
	// observed on its subscription (applied or still in flight).
	LeaderVersion Token `json:"leader_version"`
	// Lag is LeaderVersion minus the pinned version the query ran
	// against: how many committed leader versions the answer is behind.
	// 0 means the answer is current as of everything the follower has
	// heard from the leader.
	Lag uint64 `json:"lag"`
}

// QueryResponse is the body of a successful query: the schema clients
// decode into. The server does not build one; its encoder (encode.go)
// writes the same bytes encoding/json would, straight from the hits.
type QueryResponse struct {
	Doc string `json:"doc"`
	// Version is the pinned MVCC version the whole query ran against —
	// planning, execution, and result binding all observed this one
	// published state.
	Version   Token        `json:"version"`
	Count     int          `json:"count"`
	Results   []ResultItem `json:"results"`
	Truncated bool         `json:"truncated,omitempty"`
	Explain   *ExplainInfo `json:"explain,omitempty"`
	// Replica is set when a follower answered: its replication position
	// and how far behind the leader this answer is.
	Replica *ReplicaInfo `json:"replica,omitempty"`
	// AsOf is set on point-in-time queries (?version=N): the historical
	// version the answer was reconstructed at (equals Version).
	AsOf Token `json:"as_of,omitempty"`
}

// PatchOp is one operation of a patch. Exactly one shape applies per op:
//
//   - set_text: Node (a text node, or an element with exactly one text
//     child, which resolves to that child) + Value;
//   - set_attr: Attr, or Node+Name, + Value;
//   - delete:   Node (the subtree root to remove);
//   - insert:   Node (the parent) + Pos + XML (the fragment).
type PatchOp struct {
	Op    string `json:"op"`
	Node  *int32 `json:"node,omitempty"`
	Attr  *int32 `json:"attr,omitempty"`
	Name  string `json:"name,omitempty"`
	Value string `json:"value,omitempty"`
	Pos   int    `json:"pos,omitempty"`
	XML   string `json:"xml,omitempty"`
}

// PatchRequest is the body of POST /v1/patch. A patch maps onto exactly
// one WAL commit: either a batch of set_text ops (applied atomically
// through one UpdateTexts call — one log record, one published version)
// or a single set_attr/delete/insert op. Mixed or multi-structural
// batches are rejected rather than silently split into several commits.
type PatchRequest struct {
	Doc string `json:"doc,omitempty"`
	// IfVersion, when set, is an optimistic-concurrency precondition:
	// the patch applies only if the document's current version equals
	// the token; otherwise the server answers 409 with the current
	// version. Always pass it when ops carry node ids obtained from an
	// earlier query — a structural commit in between may have shifted
	// them.
	IfVersion *Token    `json:"if_version,omitempty"`
	Ops       []PatchOp `json:"ops"`
}

// PatchResponse reports the committed patch: Version is the published
// commit-sequence token (pass it as MinVersion to read your write).
type PatchResponse struct {
	Doc     string `json:"doc"`
	Version Token  `json:"version"`
	Ops     int    `json:"ops"`
}

// WatchEvent is the data payload of one WATCH change event. Kind
// marshals by name: "texts", "attr", "delete" or "insert".
type WatchEvent struct {
	Version Token            `json:"version"`
	Kind    xmlvi.ChangeKind `json:"kind"`
	Ops     int              `json:"ops"`
	// Payload is the canonical write-ahead-log record encoding of the
	// commit, base64 (standard encoding) — present only on streams opened
	// with ?payload=1. A subscriber applying these through
	// xmlvi.Document.ApplyChange in version order reconstructs every
	// published state: the stream is the log, shipped live.
	Payload string `json:"payload,omitempty"`
}

// WatchHello is the data payload of the stream-opening hello event:
// Version is the stream position the watcher resumes after (its ?from=
// token, or the current version when absent); Current is the document's
// version at stream open, so a resuming subscriber knows how far behind
// it starts (Current - Version changes are already queued).
type WatchHello struct {
	Doc     string `json:"doc"`
	Version Token  `json:"version"`
	Current Token  `json:"current"`
}

// DocStats is one served document's /v1/stats entry.
type DocStats struct {
	Version       Token  `json:"version"`
	Nodes         int    `json:"nodes"`
	Watchers      int    `json:"watchers"`
	Queries       uint64 `json:"queries"`
	Patches       uint64 `json:"patches"`
	Watches       uint64 `json:"watches"`
	Durable       bool   `json:"durable"`
	WALGeneration uint64 `json:"wal_generation,omitempty"`
	// Role is "leader" for locally written documents, "follower" for
	// replicas applying a leader's shipped log.
	Role string `json:"role"`
	// Replica reports a follower's position and lag (followers only).
	Replica *ReplicaInfo    `json:"replica,omitempty"`
	Index   core.IndexStats `json:"index"`
	// Mem is the served version's in-memory footprint (packed layout),
	// with bytes_per_node as the tracked layout metric.
	Mem core.MemStats `json:"mem"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	UptimeSeconds float64             `json:"uptime_seconds"`
	Docs          map[string]DocStats `json:"docs"`
}

// Error codes of the protocol, stable for clients to branch on.
const (
	CodeBadRequest      = "bad_request"      // malformed JSON, unknown op, bad op shape
	CodeXPathParse      = "xpath_parse"      // the expression does not parse
	CodeUnsupportedPath = "unsupported_path" // parsed, but the dialect cannot answer it (ErrUnsupportedPath)
	CodeBadTarget       = "bad_target"       // a patch op names a node/attr that does not exist or has the wrong kind
	CodeNotFound        = "not_found"        // unknown document
	CodeConflict        = "conflict"         // if_version mismatch or write-write transaction conflict
	CodeResumeGone      = "resume_gone"      // watch resume token older than the retention window
	CodeTimeout         = "timeout"          // min_version not reached in time
	CodeReadOnly        = "read_only"        // patch against a follower replica
	CodeNoHistory       = "no_history"       // ?version=N on a document served without a durable snapshot/WAL pair
	CodeVersionGone     = "version_gone"     // ?version=N older than the snapshot (compacted by a checkpoint)
	CodeVersionFuture   = "version_future"   // ?version=N newer than the durable log
	CodeInternal        = "internal"
)

// ErrorInfo is the error envelope every non-2xx response carries.
type ErrorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// CurrentVersion accompanies conflict errors so the client can
	// re-read and retry at the right version.
	CurrentVersion *Token `json:"current_version,omitempty"`
}

// ErrorBody wraps ErrorInfo as {"error": {...}}.
type ErrorBody struct {
	Error ErrorInfo `json:"error"`
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the connection owns delivery
}

// writeError writes the error envelope.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorBody{Error: ErrorInfo{Code: code, Message: msg}})
}

// writeConflict writes a 409 carrying the current version token.
func writeConflict(w http.ResponseWriter, msg string, current uint64) {
	cur := Token(current)
	writeJSON(w, http.StatusConflict, ErrorBody{Error: ErrorInfo{
		Code: CodeConflict, Message: msg, CurrentVersion: &cur,
	}})
}
