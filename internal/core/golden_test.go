package core

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/datagen"
	"repro/internal/xmltree"
)

// goldenDigests pins the SHA-256 of the snapshot bytes produced by
// goldenCommits for each corpus document. A refactor of the index
// machinery must reproduce them exactly: the snapshot format, the
// derived state and the order of every section are part of the contract
// with snapshots already on disk.
var goldenDigests = map[string]string{
	"xmark1":              "737600b0f40f8750b1ed2b65cf9f8a669a012627c012f1a2d180bffe83900d95",
	"giant-subtree":       "d37e1bbce145460380a19f59b822ca39d05da0ce5c2e6057f2b3a0d176641b29",
	"deep-chain":          "4d381725de845ca3049025a029b1b0d063c2e176f9cf85064d7b3c573773cdc4",
	"all-attributes":      "7645e407d273e13093d1eeb755a48545016edfd80fa6c7d4bca4c28acb923de0",
	"empty-document":      "e8e7cfa677076aa7204de849efb2147621fe057c01674a9abc6da063a2442ed2",
	"mixed-content-spine": "a600d76b108a236166c2f37796f4929a2b3d2b1faf9f1eda49eeb314452c130e",
}

// goldenCommits builds xml with every index (substring included), runs
// one fixed commit of each shape, and returns the saved snapshot bytes.
func goldenCommits(t *testing.T, xml string) []byte {
	t.Helper()
	ix := Build(mustParseForTest(t, xml), DefaultOptions())
	ix.EnableSubstring()
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

// TestSnapshotGoldenDigest pins snapshot bytes across refactors of the
// index families.
func TestSnapshotGoldenDigest(t *testing.T) {
	xmark, err := datagen.Generate("xmark1", 0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	cases := append([]shapeCase{{"xmark1", string(xmark)}}, shapeCorpus()...)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sum := sha256.Sum256(goldenCommits(t, tc.xml))
			if got, want := hex.EncodeToString(sum[:]), goldenDigests[tc.name]; got != want {
				t.Errorf("snapshot digest %s, want %s", got, want)
			}
		})
	}
}
