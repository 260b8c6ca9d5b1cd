package plan

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/xpath"
)

// testdata/scan_golden.txt pins the scan evaluator's answers, so that a
// change to the scan cannot move the oracle every other equivalence test
// compares against. Each line is
//
//	<document> TAB <hits> TAB <digest> TAB <query>
//
// where the document is "dialect/<i>" (the i-th entry of dialectCorpus,
// every index and the substring index built) or "xmark1" (XMark scale 1,
// seed 1, likewise), and the digest is postingsDigest of the ordered
// hits. The XMark queries are instances of the served benchmark's seven
// read-scan and seven read-point shapes, plus structural shapes whose
// descendant steps start from nested contexts.
const scanGoldenFile = "testdata/scan_golden.txt"

// postingsDigest is FNV-64a over the hits in order: "n<id>," for a node,
// "a<id>," for an attribute.
func postingsDigest(ps []core.Posting) string {
	h := fnv.New64a()
	for _, p := range ps {
		if p.IsAttr {
			fmt.Fprintf(h, "a%d,", p.Attr)
		} else {
			fmt.Fprintf(h, "n%d,", p.Node)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenDoc indexes one document of the golden file.
func goldenDoc(t *testing.T, name string) *core.Snapshot {
	t.Helper()
	if name == "xmark1" {
		xml, err := datagen.Generate("xmark1", 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		return buildDialectDoc(t, string(xml), core.DefaultOptions(), true)
	}
	i, err := strconv.Atoi(strings.TrimPrefix(name, "dialect/"))
	if err != nil || !strings.HasPrefix(name, "dialect/") || i >= len(dialectCorpus) {
		t.Fatalf("golden file names unknown document %q", name)
	}
	return buildDialectDoc(t, dialectCorpus[i].xml, core.DefaultOptions(), true)
}

// TestScanMatchesGolden holds the scan evaluator, and every planning
// mode, to the pinned answers.
func TestScanMatchesGolden(t *testing.T) {
	f, err := os.Open(scanGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	docs := map[string]*core.Snapshot{}
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.SplitN(sc.Text(), "\t", 4)
		if len(fields) != 4 {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		name, q := fields[0], fields[3]
		ix, ok := docs[name]
		if !ok {
			ix = goldenDoc(t, name)
			docs[name] = ix
		}
		lines++
		path := xpath.MustParse(q)
		check := func(label string, got []core.Posting) {
			if n, d := strconv.Itoa(len(got)), postingsDigest(got); n != fields[1] || d != fields[2] {
				t.Errorf("%s %s %s: %s hits, digest %s; golden %s, %s", name, q, label, n, d, fields[1], fields[2])
			}
		}
		check("Evaluate", xpath.Evaluate(ix.Doc(), path))
		for _, mode := range allModes {
			got, _, err := Run(ix, path, mode)
			if err != nil {
				t.Fatalf("%s %s mode=%s: %v", name, q, mode, err)
			}
			check("mode="+mode.String(), got)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("golden file is empty")
	}
}
