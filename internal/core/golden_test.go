package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/datagen"
	"repro/internal/storage"
	"repro/internal/xmltree"
)

// goldenDigests pins the SHA-256 of the snapshot bytes produced by
// goldenCommits for each corpus document. A refactor of the index
// machinery must reproduce them exactly: the snapshot format, the
// derived state and the order of every section are part of the contract
// with snapshots already on disk.
var goldenDigests = map[string]string{
	"xmark1":              "1c1bea2a5c7e57cc207d9279ea978509f290ef2053de391b628a290c88d5cde8",
	"giant-subtree":       "005ffea74bc79a870ea4c96e777c2a72ac82447d798da5ce2ff97dc9dff84496",
	"deep-chain":          "2961675f69ff14061fe727c298f23e0c613ef6d84875b21e1863904569ecbc53",
	"all-attributes":      "e5124bd67c4d1644027cb2d844f5a2c418f4882a09e6c7c16bf5a0e12c698983",
	"empty-document":      "73f57aa099fcb26a21ebdcc66e6d02f0767cf992a3fbc0039d0acc4dfc5d6694",
	"mixed-content-spine": "da54d9541e3972240ff2b584b5e778f59e5b467003f6bf64ea3d7bdae4730024",
}

// goldenRecordDigests pins the SHA-256 of the log record stream
// goldenCommits emits through the commit hook (see recordStreamDigest).
// The record bytes are the write-ahead log's contract with logs already
// on disk and with followers replaying a leader's shipped stream.
var goldenRecordDigests = map[string]string{
	"xmark1":              "0dc318d3911fd38b06f280d73e6cc902f5ba92d94b557f9d6fc3c42ee66ba50e",
	"giant-subtree":       "08bdec241c41de1cf26f9ba5ece89c50ab406240770fc1e767dac70ae33e03a4",
	"deep-chain":          "fc99ca83f0659b073d6aa2cac42ed159020f218fc71bae9ded9dbc0daf24bd13",
	"all-attributes":      "aed3979c210d21aca59aefdf0682136da124ef34669ec42017131f1d2bddcb44",
	"empty-document":      "66902771d7e905356a1f4fe82189790ce3167853d6d235f95c83fca3abcc7166",
	"mixed-content-spine": "2a6b99d3d3a796ce92903c2e3da4b8704bf76bb871439ed1b0f67b51c62306af",
}

// goldenCommits builds xml with every index (substring included), runs
// one fixed commit of each shape, and returns the saved snapshot bytes
// together with the records the commit hook observed, in commit order.
func goldenCommits(t *testing.T, xml string) ([]byte, []storage.Record) {
	t.Helper()
	ix := goldenBase(t, xml)
	var recs []storage.Record
	ix.SetCommitHook(func(_ uint64, kind storage.RecordKind, _ int, payload []byte) {
		recs = append(recs, storage.Record{Kind: kind, Payload: payload})
	})
	doc := ix.Doc()
	texts := textNodesOf(doc)
	if len(texts) > 0 {
		batch := []TextUpdate{{Node: texts[0], Value: "17.25"}}
		if len(texts) > 1 {
			batch = append(batch, TextUpdate{Node: texts[len(texts)-1], Value: "2001-02-03"})
		}
		if err := ix.UpdateTexts(batch); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Doc().NumAttrs() > 0 {
		if err := ix.UpdateAttr(0, "1999-12-31T10:00:00"); err != nil {
			t.Fatal(err)
		}
	}
	root := ix.Doc().FirstChild(ix.Doc().Root())
	frag := mustParseForTest(t, `<ins a="3.5"><v>42</v>mixed 7<w k="grams here"/></ins>`)
	if _, err := ix.InsertChildren(root, 0, frag); err != nil {
		t.Fatal(err)
	}
	doc = ix.Doc()
	var last xmltree.NodeID = xmltree.InvalidNode
	for c := doc.FirstChild(root); c != xmltree.InvalidNode; c = doc.NextSibling(c) {
		last = c
	}
	if err := ix.DeleteSubtree(last); err != nil {
		t.Fatal(err)
	}
	if texts := textNodesOf(ix.Doc()); len(texts) > 0 {
		if err := ix.UpdateText(texts[0], "0.5e1"); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
	return savedBytes(t, ix), recs
}

// goldenBase builds xml with every index, substring included.
func goldenBase(t *testing.T, xml string) *Indexes {
	t.Helper()
	ix := Build(mustParseForTest(t, xml), DefaultOptions())
	ix.EnableSubstring()
	return ix
}

// savedBytes returns the snapshot bytes of ix's current version.
func savedBytes(t *testing.T, ix *Indexes) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "golden.xvi")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// recordStreamDigest hashes a record stream as, per record, its kind
// byte, the uvarint payload length and the payload.
func recordStreamDigest(recs []storage.Record) string {
	h := sha256.New()
	for _, r := range recs {
		h.Write(binary.AppendUvarint([]byte{byte(r.Kind)}, uint64(len(r.Payload))))
		h.Write(r.Payload)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func goldenCases(t *testing.T) []shapeCase {
	t.Helper()
	xmark, err := datagen.Generate("xmark1", 0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	return append([]shapeCase{{"xmark1", string(xmark)}}, shapeCorpus()...)
}

// TestSnapshotGoldenDigest pins snapshot bytes across refactors of the
// index families.
func TestSnapshotGoldenDigest(t *testing.T) {
	for _, tc := range goldenCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			snap, _ := goldenCommits(t, tc.xml)
			sum := sha256.Sum256(snap)
			if got, want := hex.EncodeToString(sum[:]), goldenDigests[tc.name]; got != want {
				t.Errorf("snapshot digest %s, want %s", got, want)
			}
		})
	}
}

// TestRecordGoldenDigest pins the record bytes the live commits emit
// and proves live equals replay: the captured stream, applied record by
// record onto a fresh build, reproduces the pinned snapshot bytes.
func TestRecordGoldenDigest(t *testing.T) {
	for _, tc := range goldenCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			_, recs := goldenCommits(t, tc.xml)
			if got, want := recordStreamDigest(recs), goldenRecordDigests[tc.name]; got != want {
				t.Errorf("record stream digest %s, want %s", got, want)
			}
			ix := goldenBase(t, tc.xml)
			for _, rec := range recs {
				if err := ix.ApplyShippedRecord(ix.Version()+1, rec); err != nil {
					t.Fatal(err)
				}
			}
			sum := sha256.Sum256(savedBytes(t, ix))
			if got, want := hex.EncodeToString(sum[:]), goldenDigests[tc.name]; got != want {
				t.Errorf("replayed snapshot digest %s, want %s", got, want)
			}
		})
	}
}
