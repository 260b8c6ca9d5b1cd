package core

import (
	"bytes"
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
	"xmark1":              "7fbf16322ac3a2fef181d348ad1200c8284af8373d26d21b86d2bd607a288cb1",
	"giant-subtree":       "7b81f53c0a2aac94887399d49f69eea720943a496dbb5d2a41c21b337320c700",
	"deep-chain":          "f9f8210a10c6fe7f82f737c1ac0d369e3daeecf4a9e9eb5aadfa95fd79f8758f",
	"all-attributes":      "78aced39cfa8a76c582ac435ed77c7fc64de981a9609a9fcb26b42c624fbb64d",
	"empty-document":      "e21b142818ca55f15607edac7d02fa64413615e3e4bf6df4c1e2422b73f40fc5",
	"mixed-content-spine": "c98ea3cbe2187e75e84e2fd82a7f1ca5837bad1b362e9eb95fe24f02419e312a",
}

// goldenRecordDigests pins the SHA-256 of the log record stream
// goldenCommits emits through the commit hook (see recordStreamDigest).
// The record bytes are the write-ahead log's contract with logs already
// on disk and with followers replaying a leader's shipped stream.
var goldenRecordDigests = map[string]string{
	"xmark1":              "fe2e188c10e931f1afc95ea3b21c9578ea6ff4c4da8178a09e7907b8f3d64bc1",
	"giant-subtree":       "f35299f42f9718debcd684b0ecb381c36e84e533ca9461ff23cc5a88b6004cec",
	"deep-chain":          "8ee84289c97501fa4c277099eb49c265adb73e9a89a6ea2eee077ff1756a3e2a",
	"all-attributes":      "7258b1abceb9290bfe1a9823fff8b90aa55d2bbfe0250ff76ffb682ccdb64778",
	"empty-document":      "f6f3a18a6fac5fc13429a0b6c5980126bc8ab73d6645006c8bc812c10c7a96c1",
	"mixed-content-spine": "30436664fccb8aaaed4a4a134da965c026f955bfa9e78c64f70e8bde80b7f8d1",
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
			// The commits retired stable ids; a reload must keep them
			// retired and save the same bytes.
			path := filepath.Join(t.TempDir(), "reload.xvi")
			if err := os.WriteFile(path, snap, 0o644); err != nil {
				t.Fatal(err)
			}
			ix, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(savedBytes(t, ix), snap) {
				t.Error("a reloaded snapshot saves different bytes")
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
