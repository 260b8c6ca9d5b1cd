package main

import (
	"fmt"
	"strconv"
)

// The benchmark's own copy of the xvid wire protocol: only the fields it
// sends or checks, so that it talks to the server as a client would and
// does not compile against the server's types.

// token is a commit-sequence version, a decimal string on the wire.
type token uint64

func (t token) MarshalJSON() ([]byte, error) {
	return []byte(`"` + strconv.FormatUint(uint64(t), 10) + `"`), nil
}

func (t *token) UnmarshalJSON(b []byte) error {
	s := string(b)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		s = s[1 : len(s)-1]
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return fmt.Errorf("invalid version token %s", b)
	}
	*t = token(v)
	return nil
}

type queryRequest struct {
	Query string `json:"query"`
}

type resultItem struct {
	Node   int32  `json:"node"`
	Attr   int32  `json:"attr"`
	IsAttr bool   `json:"is_attr,omitempty"`
	Name   string `json:"name,omitempty"`
	Value  string `json:"value"`
	Path   string `json:"path"`
}

type queryResponse struct {
	Doc       string       `json:"doc"`
	Version   token        `json:"version"`
	Count     int          `json:"count"`
	Results   []resultItem `json:"results"`
	Truncated bool         `json:"truncated,omitempty"`
}

type patchOp struct {
	Op    string `json:"op"`
	Node  *int32 `json:"node,omitempty"`
	Name  string `json:"name,omitempty"`
	Value string `json:"value,omitempty"`
	Pos   int    `json:"pos,omitempty"`
	XML   string `json:"xml,omitempty"`
}

type patchRequest struct {
	Ops []patchOp `json:"ops"`
}

type patchResponse struct {
	Doc     string `json:"doc"`
	Version token  `json:"version"`
	Ops     int    `json:"ops"`
}

// resultLimit is the server's default cap on serialised hits.
const resultLimit = 1000
