package core

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/btree"
	"repro/internal/fsm"
	"repro/internal/xmlparse"
	"repro/internal/xmltree"
)

func int32AsNodeID(i int) xmltree.NodeID { return xmltree.NodeID(i) }

func mustParseForTest(t testing.TB, xml string) *xmltree.Doc {
	t.Helper()
	doc, err := xmlparse.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func writeGarbage(path string) error {
	return os.WriteFile(path, []byte("this is not a snapshot file at all, not even close"), 0o644)
}

// shapeCase is one entry of the pathological shape corpus shared by the
// parallel-equivalence and recovery-equivalence properties.
type shapeCase struct {
	name string
	xml  string
}

// shapeCorpus returns the pathological document shapes: a single giant
// subtree (every node on the spine), a deep chain with values at every
// level, an all-attribute document, an empty document, and a
// mixed-content spine.
func shapeCorpus() []shapeCase {
	var giant strings.Builder
	giant.WriteString("<r>")
	const giantDepth = 600
	for i := 0; i < giantDepth; i++ {
		fmt.Fprintf(&giant, "<d%d>", i%7)
	}
	giant.WriteString("42.5")
	for i := giantDepth - 1; i >= 0; i-- {
		fmt.Fprintf(&giant, "</d%d>", i%7)
	}
	giant.WriteString("</r>")

	var deep strings.Builder
	deep.WriteString("<r>")
	const chainDepth = 250
	for i := 0; i < chainDepth; i++ {
		fmt.Fprintf(&deep, "<lvl><n>%d.5</n>", i)
	}
	deep.WriteString("bottom")
	for i := 0; i < chainDepth; i++ {
		deep.WriteString("</lvl>")
	}
	deep.WriteString("</r>")

	var attrs strings.Builder
	attrs.WriteString("<r>")
	for i := 0; i < 900; i++ {
		fmt.Fprintf(&attrs, `<e a="%d" b="%d.%02d" when="19%02d-0%d-1%d"/>`, i, i, i%100, i%100, i%9+1, i%3)
	}
	attrs.WriteString("</r>")

	var mixed strings.Builder
	mixed.WriteString("<r>7")
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&mixed, "<w><v>%d</v></w>", i)
	}
	mixed.WriteString("8<!--note--><?pi data?></r>")

	return []shapeCase{
		{"giant-subtree", giant.String()},
		{"deep-chain", deep.String()},
		{"all-attributes", attrs.String()},
		{"empty-document", "<r/>"},
		{"mixed-content-spine", mixed.String()},
	}
}

// Per-type conveniences over the generic typed-index API (RangeTyped,
// TypedFrag, ScanTypedRange), so assertions read in value terms.

func rangeDouble(s *Snapshot, lo, hi float64, incLo, incHi bool) []Posting {
	return s.RangeTyped(TypeDouble, btree.EncodeFloat64(lo), btree.EncodeFloat64(hi), incLo, incHi)
}

func lookupDoubleEq(s *Snapshot, v float64) []Posting { return rangeDouble(s, v, v, true, true) }

func rangeDateTime(s *Snapshot, lo, hi int64) []Posting {
	return s.RangeTyped(TypeDateTime, btree.EncodeInt64(lo), btree.EncodeInt64(hi), true, true)
}

func rangeDate(s *Snapshot, lo, hi int64) []Posting {
	return s.RangeTyped(TypeDate, btree.EncodeInt64(lo), btree.EncodeInt64(hi), true, true)
}

// scanDoubleRange is the index-free oracle for rangeDouble over [lo, hi].
func scanDoubleRange(s *Snapshot, lo, hi float64) []Posting {
	return ScanTypedRange(s.Doc(), TypeDouble, btree.EncodeFloat64(lo), btree.EncodeFloat64(hi))
}

func typedValue[T any](s *Snapshot, id TypeID, n xmltree.NodeID, value func(fsm.Frag) (T, bool)) (T, bool) {
	f, ok := s.TypedFrag(id, n)
	if !ok {
		var zero T
		return zero, false
	}
	return value(f)
}

func doubleValue(s *Snapshot, n xmltree.NodeID) (float64, bool) {
	return typedValue(s, TypeDouble, n, fsm.DoubleValue)
}

func dateTimeValue(s *Snapshot, n xmltree.NodeID) (int64, bool) {
	return typedValue(s, TypeDateTime, n, fsm.DateTimeValue)
}

func dateValue(s *Snapshot, n xmltree.NodeID) (int64, bool) {
	return typedValue(s, TypeDate, n, fsm.DateValue)
}
