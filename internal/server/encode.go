package server

// The query response encoder. A successful query's body is appended into
// a pooled buffer straight from the hits: each value and path is
// appended into a reused scratch buffer and escaped from there, with no
// ResultItem, no reflection and no re-indenting pass. The bytes are exactly what
// json.Encoder with SetIndent("", "  ") writes for the QueryResponse
// the hits describe (TestEncoderMatchesEncodingJSON and
// FuzzQueryResponseEncoding hold the two together).

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	xmlvi "repro"
)

// queryAnswer is a successful query before encoding: QueryResponse with
// the hits in place of its Results, Count and Truncated.
type queryAnswer struct {
	Doc     string
	Version Token
	Hits    []xmlvi.Result
	Limit   int // the most hits the body lists
	Explain *ExplainInfo
	Replica *ReplicaInfo
	AsOf    Token
}

// encoder holds the scratch one response reuses; pooled, it is reused
// across responses too.
type encoder struct {
	body, value, path []byte
}

var encoders = sync.Pool{New: func() any { return new(encoder) }}

// writeQuery writes a successful query's body.
func writeQuery(w http.ResponseWriter, q *queryAnswer) {
	e := encoders.Get().(*encoder)
	e.body = e.appendQuery(e.body[:0], q)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(e.body)))
	w.WriteHeader(http.StatusOK)
	w.Write(e.body) //nolint:errcheck // the connection owns delivery
	encoders.Put(e)
}

// appendQuery appends q's body to b.
func (e *encoder) appendQuery(b []byte, q *queryAnswer) []byte {
	b = append(b, "{\n  \"doc\": "...)
	b = appendString(b, q.Doc)
	b = append(b, ",\n  \"version\": "...)
	b = appendToken(b, q.Version)
	b = append(b, ",\n  \"count\": "...)
	b = strconv.AppendInt(b, int64(len(q.Hits)), 10)
	b = append(b, ",\n  \"results\": ["...)
	hits := q.Hits[:min(len(q.Hits), q.Limit)]
	for i, h := range hits {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    {\n      \"node\": "...)
		b = strconv.AppendInt(b, int64(h.Node), 10)
		b = append(b, ",\n      \"attr\": "...)
		if h.IsAttr {
			b = strconv.AppendInt(b, int64(h.Attr), 10)
			b = append(b, ",\n      \"is_attr\": true"...)
		} else {
			b = append(b, "-1"...)
		}
		if name := h.Name(); name != "" {
			b = append(b, ",\n      \"name\": "...)
			b = appendString(b, name)
		}
		b = append(b, ",\n      \"value\": "...)
		e.value = h.AppendValue(e.value[:0])
		b = appendString(b, e.value)
		b = append(b, ",\n      \"path\": "...)
		e.path = h.AppendPath(e.path[:0])
		b = appendString(b, e.path)
		b = append(b, "\n    }"...)
	}
	if len(hits) > 0 {
		b = append(b, "\n  "...)
	}
	b = append(b, ']')
	if len(q.Hits) > len(hits) {
		b = append(b, ",\n  \"truncated\": true"...)
	}
	if q.Explain != nil {
		b = append(b, ",\n  \"explain\": "...)
		b = appendIndented(b, q.Explain)
	}
	if q.Replica != nil {
		b = append(b, ",\n  \"replica\": "...)
		b = appendIndented(b, q.Replica)
	}
	if q.AsOf != 0 {
		b = append(b, ",\n  \"as_of\": "...)
		b = appendToken(b, q.AsOf)
	}
	return append(b, "\n}\n"...)
}

func appendToken(b []byte, t Token) []byte {
	return append(strconv.AppendUint(append(b, '"'), uint64(t), 10), '"')
}

// appendIndented appends v as json.Encoder would write it one level
// deep inside the response object.
func appendIndented(b []byte, v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // ExplainInfo and ReplicaInfo always marshal
	}
	var out bytes.Buffer
	json.Indent(&out, raw, "  ", "  ") //nolint:errcheck // raw is valid JSON
	return append(b, out.Bytes()...)
}

// safe marks the ASCII bytes encoding/json writes unescaped with HTML
// escaping on: every printable byte but `"`, `\`, `<`, `>` and `&`.
var safe = func() (s [utf8.RuneSelf]bool) {
	for c := byte(' '); c < utf8.RuneSelf; c++ {
		s[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return s
}()

// appendString appends s as a JSON string.
func appendString[T string | []byte](b []byte, s T) []byte {
	return append(appendEscaped(append(b, '"'), s), '"')
}

const hex = "0123456789abcdef"

// appendEscaped appends s's bytes escaped as encoding/json escapes a
// string's contents: `\"`, `\\`, the short forms \b \f \n \r \t, \u00XX
// for other control bytes and for <, > and &, \ufffd for each byte of
// invalid UTF-8, and \u2028 and \u2029.
func appendEscaped[T string | []byte](b []byte, s T) []byte {
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if safe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(b, s[start:]...)
}
