package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	xmlvi "repro"
)

// referenceBody is what the server wrote before it had its own encoder:
// the QueryResponse the answer describes, each hit materialised through
// Name, Value and Path, encoded by encoding/json with two-space indents.
func referenceBody(t testing.TB, q *queryAnswer) []byte {
	t.Helper()
	resp := QueryResponse{Doc: q.Doc, Version: q.Version, Count: len(q.Hits), Results: []ResultItem{},
		Explain: q.Explain, Replica: q.Replica, AsOf: q.AsOf}
	for i, h := range q.Hits {
		if i == q.Limit {
			resp.Truncated = true
			break
		}
		item := ResultItem{Node: int32(h.Node), Attr: -1, IsAttr: h.IsAttr, Name: h.Name(), Value: h.Value(), Path: h.Path()}
		if h.IsAttr {
			item.Attr = int32(h.Attr)
		}
		resp.Results = append(resp.Results, item)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkEncoding compares the encoder with the reference on one answer,
// through one encoder reused as the pool reuses it.
func checkEncoding(t testing.TB, e *encoder, q *queryAnswer) {
	t.Helper()
	e.body = e.appendQuery(e.body[:0], q)
	if want := referenceBody(t, q); !bytes.Equal(e.body, want) {
		i := 0
		for i < min(len(e.body), len(want)) && e.body[i] == want[i] {
			i++
		}
		t.Fatalf("encoder and encoding/json differ at byte %d:\nencoder:       %q\nencoding/json: %q",
			i, e.body[max(i-40, 0):min(i+40, len(e.body))], want[max(i-40, 0):min(i+40, len(want))])
	}
}

// trickyPieces are the string pieces whose JSON escaping differs from
// their bytes: HTML characters, quotes, every control byte, invalid
// UTF-8, U+2028/U+2029 and multi-byte runes, the replacement rune
// itself included.
var trickyPieces = func() []string {
	ps := []string{"<", ">", "&", `"`, `\`, "\x7f", "\xff", "\xc3", "\xe2\x80", "\xed\xa0\x80", "\u2028", "\u2029",
		"\ufffd", "é", "日本", "😀", "plain text", " ", "/", "'"}
	for c := byte(0); c < 0x20; c++ {
		ps = append(ps, string([]byte{c}))
	}
	return ps
}()

func trickyString(rng *rand.Rand, pieces int) string {
	var sb strings.Builder
	for range pieces {
		sb.WriteString(trickyPieces[rng.Intn(len(trickyPieces))])
	}
	return sb.String()
}

// trickyDoc is a document whose text and attribute values are s: the
// text as CDATA, the attribute with its markup characters escaped.
func trickyDoc(s string) (*xmlvi.Document, error) {
	attr := strings.NewReplacer("&", "&amp;", "<", "&lt;", `"`, "&quot;").Replace(s)
	text := strings.ReplaceAll(s, "]]>", "]]&gt;")
	return xmlvi.ParseString(`<r><v a="` + attr + `"><![CDATA[` + text + `]]></v><w b="1">x<v>` +
		`<![CDATA[` + text + `]]></v></w><v/></r>`)
}

// TestEncoderMatchesEncodingJSON is the byte-identity property: on
// documents of random tricky values, for element, text and attribute
// hits, empty and truncated results, and every optional field, the
// encoder writes exactly what encoding/json writes.
func TestEncoderMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var e encoder
	for trial := range 200 {
		s := trickyString(rng, rng.Intn(12))
		d, err := trickyDoc(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		for _, query := range []string{`//*`, `//text()`, `//@*`, `//v`, `//none`, `/r/w/v/text()`} {
			hits, err := d.Query(query)
			if err != nil {
				t.Fatal(err)
			}
			q := &queryAnswer{Doc: trickyString(rng, 2), Version: Token(rng.Uint64()), Hits: hits, Limit: 1 + rng.Intn(4)}
			if trial%2 == 0 {
				q.Explain = &ExplainInfo{Plan: "scan " + trickyString(rng, 3) + "\n  child", UsesIndex: trial%4 == 0, EstCost: rng.Float64() * 1e6}
			}
			if trial%3 == 0 {
				q.Replica = &ReplicaInfo{LeaderVersion: Token(rng.Intn(100)), Lag: uint64(rng.Intn(3))}
			}
			if trial%5 == 0 {
				q.AsOf = Token(1 + rng.Intn(9))
			}
			checkEncoding(t, &e, q)
		}
	}
}

// FuzzQueryResponseEncoding holds the encoder to encoding/json on
// arbitrary bytes: as a bare JSON string, and as the text and attribute
// values of every hit of a query answer.
func FuzzQueryResponseEncoding(f *testing.F) {
	for _, s := range []string{"", "<a & b>", "\x00\x1f\x7f", "\xff\xfe", "\u2028\u2029", "\ufffd", `"\`, "日本語"} {
		f.Add(s, uint8(1), false)
	}
	var e encoder
	f.Fuzz(func(t *testing.T, s string, limit uint8, explain bool) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, []byte(s)); !bytes.Equal(got, want) {
			t.Fatalf("%q: encoder %q, encoding/json %q", s, got, want)
		}
		d, err := trickyDoc(s)
		if err != nil {
			return // not a document the parser accepts
		}
		for _, query := range []string{`//*`, `//text()`, `//@*`} {
			hits, err := d.Query(query)
			if err != nil {
				t.Fatal(err)
			}
			q := &queryAnswer{Doc: s, Version: 7, Hits: hits, Limit: int(limit), AsOf: Token(limit)}
			if explain {
				q.Explain = &ExplainInfo{Plan: s, EstCost: float64(len(s))}
				q.Replica = &ReplicaInfo{LeaderVersion: 9, Lag: 2}
			}
			checkEncoding(t, &e, q)
		}
	})
}
