package fsm

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestFragCombineMatchesParse is the fragment-level analogue of the SCT
// property: parsing a concatenation must equal combining the parses —
// including the digit runs and punctuation, not just the element.
func TestFragCombineMatchesParse(t *testing.T) {
	for name, m := range machines() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			for trial := 0; trial < 5000; trial++ {
				x := randomFragString(rng, 10)
				y := randomFragString(rng, 10)
				fx, okx := m.ParseFragString(x)
				fy, oky := m.ParseFragString(y)
				direct, okd := m.ParseFragString(x + y)
				if !okx || !oky {
					if okx && oky {
						t.Fatalf("inconsistent rejects for %q %q", x, y)
					}
					// A rejected part always rejects the whole.
					if okd && !okx && !oky {
						t.Fatalf("reject part but concat %q%q accepted", x, y)
					}
					continue
				}
				comb, okc := m.Combine(fx, fy)
				if okc != okd {
					t.Fatalf("Combine ok=%v but direct ok=%v for %q + %q", okc, okd, x, y)
				}
				if !okc {
					continue
				}
				if !fragEqual(comb, direct) {
					t.Fatalf("frag mismatch for %q + %q:\ncombine: %+v\ndirect:  %+v", x, y, comb, direct)
				}
			}
		})
	}
}

func fragEqual(a, b Frag) bool {
	if a.Elem != b.Elem || len(a.Items) != len(b.Items) {
		return false
	}
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			return false
		}
	}
	return true
}

// TestFragCombineAssociative: (a·b)·c == a·(b·c) at the descriptor level.
func TestFragCombineAssociative(t *testing.T) {
	for name, m := range machines() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(12))
			for trial := 0; trial < 3000; trial++ {
				fa, oka := m.ParseFragString(randomFragString(rng, 6))
				fb, okb := m.ParseFragString(randomFragString(rng, 6))
				fc, okc := m.ParseFragString(randomFragString(rng, 6))
				if !oka || !okb || !okc {
					continue
				}
				ab, ok1 := m.Combine(fa, fb)
				var left Frag
				okL := false
				if ok1 {
					left, okL = m.Combine(ab, fc)
				}
				bc, ok2 := m.Combine(fb, fc)
				var right Frag
				okR := false
				if ok2 {
					right, okR = m.Combine(fa, bc)
				}
				if okL != okR {
					t.Fatalf("assoc ok mismatch: %v %v", okL, okR)
				}
				if okL && !fragEqual(left, right) {
					t.Fatalf("assoc frag mismatch:\n%+v\n%+v", left, right)
				}
			}
		})
	}
}

// TestMergeExactGrouping: folding pieces in groups, each group left to
// right and then the groups left to right, gives the plain left-to-right
// fold bit for bit whenever every group boundary is MergeExact; some
// groupings it rejects do change a long digit run's last bits.
func TestMergeExactGrouping(t *testing.T) {
	m := Double()
	rng := rand.New(rand.NewSource(5))
	differs := 0
	for trial := 0; trial < 2000; trial++ {
		var pieces []Frag
		for range 1 + rng.Intn(40) {
			f, _ := m.ParseFragString([]string{"", "7", "19", "305", "0", ".", "123456789"}[rng.Intn(7)])
			pieces = append(pieces, f)
		}
		flat, okFlat := m.CombineAll(pieces...)
		grouped, ok, exact := m.IdentityFrag(), true, true
		for i := 0; i < len(pieces) && ok; {
			j := min(len(pieces), i+1+rng.Intn(8))
			g, _ := m.CombineAll(pieces[i:j]...)
			exact = exact && MergeExact(grouped, g) // a rejected g is the zero Frag
			grouped, ok = m.Combine(grouped, g)
			i = j
		}
		if ok != okFlat {
			t.Fatalf("grouped ok=%v, flat ok=%v", ok, okFlat)
		}
		if !ok {
			continue
		}
		switch {
		case !exact && !fragEqual(grouped, flat):
			differs++
		case exact && !fragEqual(grouped, flat):
			t.Fatalf("exact grouping differs:\n%+v\n%+v", grouped, flat)
		}
	}
	if differs == 0 {
		t.Fatal("no grouping that MergeExact rejects changed a run's value; the test shows nothing")
	}
}

// TestLexicalRoundTrip: for castable doubles without whitespace and with
// short digit runs, ParseFrag(s).Lexical() == s exactly.
func TestLexicalRoundTrip(t *testing.T) {
	m := Double()
	cases := []string{
		"0", "42", "42.0", "0042", "+4.2E1", "-0.001", "1.", ".5", "78.230",
		"1e9", "2E+308", "3E-308", "12.e5", "000.000", "9007199254740992",
	}
	for _, s := range cases {
		f, ok := m.ParseFragString(s)
		if !ok {
			t.Fatalf("ParseFrag(%q) rejected", s)
		}
		if got := f.Lexical(); got != s {
			t.Errorf("Lexical(%q) = %q", s, got)
		}
	}
}

// TestDoubleValueMatchesParseFloat: the reconstructed value is
// bit-identical to strconv.ParseFloat of the (trimmed) original for
// practical digit lengths.
func TestDoubleValueMatchesParseFloat(t *testing.T) {
	m := Double()
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 5000; trial++ {
		s := validDoubleString(rng)
		f, ok := m.ParseFragString(s)
		if !ok {
			t.Fatalf("valid double %q rejected", s)
		}
		got, ok := DoubleValue(f)
		if !ok {
			t.Fatalf("valid double %q has no value", s)
		}
		want, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			if ne, isNum := err.(*strconv.NumError); !isNum || ne.Err != strconv.ErrRange {
				t.Fatalf("ParseFloat(%q): %v", s, err)
			}
			// Out of range: ParseFloat still returns ±Inf or 0, which is
			// the value the cast retains.
		}
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("value of %q = %v, want %v", s, got, want)
		}
	}
}

// TestDoubleValueMixedContent: the paper's headline semantic — values
// assembled from mixed content equal their flat equivalents.
func TestDoubleValueMixedContent(t *testing.T) {
	m := Double()
	cases := []struct {
		parts []string
		want  float64
	}{
		{[]string{"4", "2"}, 42},
		{[]string{"78", ".", "230"}, 78.230},
		{[]string{" +4", ".2E", "1 "}, 42},
		{[]string{"-", "1", ".", "5"}, -1.5},
		{[]string{"1", "E", "-", "2"}, 0.01},
		{[]string{" ", "42", " "}, 42},
	}
	for _, c := range cases {
		frags := make([]Frag, len(c.parts))
		for i, p := range c.parts {
			f, ok := m.ParseFragString(p)
			if !ok {
				t.Fatalf("part %q rejected", p)
			}
			frags[i] = f
		}
		comb, ok := m.CombineAll(frags...)
		if !ok {
			t.Fatalf("parts %v rejected on combine", c.parts)
		}
		v, ok := DoubleValue(comb)
		if !ok || v != c.want {
			t.Errorf("value(%v) = %v,%v, want %v", c.parts, v, ok, c.want)
		}
	}
	// And rejection cases.
	rejects := [][]string{
		{"1", " ", "2"},   // interior whitespace
		{"1.", "2.", "3"}, // two dots
		{"1E2", "E3"},     // two Es
		{"+", "+1"},       // two signs
		{"1", "x"},        // garbage
	}
	for _, parts := range rejects {
		frags := make([]Frag, 0, len(parts))
		okAll := true
		for _, p := range parts {
			f, ok := Double().ParseFragString(p)
			if !ok {
				okAll = false
				break
			}
			frags = append(frags, f)
		}
		if !okAll {
			continue
		}
		if _, ok := Double().CombineAll(frags...); ok {
			t.Errorf("parts %v should reject", parts)
		}
	}
}

// TestDoubleValueNotCastable: live but incomplete fragments yield no value.
func TestDoubleValueNotCastable(t *testing.T) {
	for _, s := range []string{".", "+", "12E", "E+93 ", ""} {
		f, ok := Double().ParseFragString(s)
		if !ok {
			t.Fatalf("%q should be live", s)
		}
		if _, ok := DoubleValue(f); ok {
			t.Errorf("%q should have no value", s)
		}
	}
}

// TestDoubleValueLongRuns: digit runs beyond exact float range still
// produce values close to ParseFloat (within 1 ulp-ish relative error).
func TestDoubleValueLongRuns(t *testing.T) {
	m := Double()
	cases := []string{
		"123456789012345678901234567890",
		"0.000000000000000000000012345",
		"9999999999999999999.9999999999999999",
		"1E400", // overflows to +Inf
		"-1E400",
		"1E-400", // underflows to 0
	}
	for _, s := range cases {
		f, ok := m.ParseFragString(s)
		if !ok {
			t.Fatalf("%q rejected", s)
		}
		got, ok := DoubleValue(f)
		if !ok {
			t.Fatalf("%q has no value", s)
		}
		want, _ := strconv.ParseFloat(s, 64)
		if math.IsInf(want, 0) || want == 0 {
			if got != want {
				t.Errorf("value(%q) = %v, want %v", s, got, want)
			}
			continue
		}
		if rel := math.Abs(got-want) / math.Abs(want); rel > 1e-12 {
			t.Errorf("value(%q) = %v, want %v (rel %g)", s, got, want, rel)
		}
	}
}

// TestDateTimeValueAgainstStdlib cross-checks epoch conversion with
// time.Date over a wide range of dates and timezones.
func TestDateTimeValueAgainstStdlib(t *testing.T) {
	m := DateTime()
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 3000; trial++ {
		y := 1 + rng.Intn(9998)
		mo := 1 + rng.Intn(12)
		d := 1 + rng.Intn(daysInMonth(y, mo))
		h, mi, se := rng.Intn(24), rng.Intn(60), rng.Intn(60)
		frac := rng.Intn(1000)
		var sb strings.Builder
		sb.WriteString(pad(y, 4) + "-" + pad(mo, 2) + "-" + pad(d, 2) + "T" +
			pad(h, 2) + ":" + pad(mi, 2) + ":" + pad(se, 2))
		withFrac := rng.Intn(2) == 0
		if withFrac {
			sb.WriteString("." + pad(frac, 3))
		}
		loc := time.UTC
		switch rng.Intn(3) {
		case 0:
			sb.WriteString("Z")
		case 1:
			offH, offM := rng.Intn(14), rng.Intn(60)
			if offH == 14 {
				offM = 0
			}
			sign := "+"
			offset := offH*3600 + offM*60
			if rng.Intn(2) == 0 {
				sign = "-"
				offset = -offset
			}
			sb.WriteString(sign + pad(offH, 2) + ":" + pad(offM, 2))
			loc = time.FixedZone("tz", offset)
		}
		s := sb.String()
		f, ok := m.ParseFragString(s)
		if !ok {
			t.Fatalf("valid dateTime %q rejected", s)
		}
		got, ok := DateTimeValue(f)
		if !ok {
			t.Fatalf("valid dateTime %q has no value", s)
		}
		ns := 0
		if withFrac {
			ns = frac * 1e6
		}
		want := time.Date(y, time.Month(mo), d, h, mi, se, ns, loc).UnixMilli()
		if got != want {
			t.Fatalf("value(%q) = %d, want %d", s, got, want)
		}
	}
}

func pad(v, n int) string {
	s := strconv.Itoa(v)
	for len(s) < n {
		s = "0" + s
	}
	return s
}

// TestDateTimeSemanticRejects: syntactically complete but impossible
// dateTimes have no value.
func TestDateTimeSemanticRejects(t *testing.T) {
	m := DateTime()
	for _, s := range []string{
		"2026-13-01T00:00:00",       // month 13
		"2026-00-01T00:00:00",       // month 0
		"2026-02-30T00:00:00",       // Feb 30
		"2025-02-29T00:00:00",       // non-leap Feb 29
		"2026-06-31T00:00:00",       // June 31
		"2026-06-11T24:00:00",       // hour 24
		"2026-06-11T12:60:00",       // minute 60
		"2026-06-11T12:00:61",       // second 61
		"2026-06-11T12:00:00+15:00", // zone beyond +14
		"2026-06-11T12:00:00+14:30",
	} {
		f, ok := m.ParseFragString(s)
		if !ok {
			t.Fatalf("%q should be syntactically live", s)
		}
		if !m.Castable(f.Elem) {
			t.Fatalf("%q should be syntactically castable", s)
		}
		if _, ok := DateTimeValue(f); ok {
			t.Errorf("%q should have no value", s)
		}
	}
	// Leap-year positive case.
	f, _ := m.ParseFragString("2024-02-29T00:00:00Z")
	if _, ok := DateTimeValue(f); !ok {
		t.Error("2024-02-29 is a valid leap day")
	}
}

// TestDateTimeMixedContent: dateTime assembled from fragments, as the
// index must handle for mixed-content nodes.
func TestDateTimeMixedContent(t *testing.T) {
	m := DateTime()
	parts := []string{"2026-06", "-11T12:3", "0:45.5", "Z"}
	frags := make([]Frag, len(parts))
	for i, p := range parts {
		f, ok := m.ParseFragString(p)
		if !ok {
			t.Fatalf("part %q rejected", p)
		}
		frags[i] = f
	}
	comb, ok := m.CombineAll(frags...)
	if !ok {
		t.Fatal("parts rejected on combine")
	}
	got, ok := DateTimeValue(comb)
	if !ok {
		t.Fatal("combined dateTime has no value")
	}
	want := time.Date(2026, 6, 11, 12, 30, 45, 500*1e6, time.UTC).UnixMilli()
	if got != want {
		t.Errorf("value = %d, want %d", got, want)
	}
	// Pure digit strings are live dateTime fragments (they could extend a
	// year) — the realistic cost of genericity the paper accepts.
	if m.ElemOf([]byte("2026")) == Reject {
		t.Error("bare year must be live")
	}
}

// TestFragParityWithReflectDeepEqual keeps fragEqual honest.
func TestFragParityWithReflectDeepEqual(t *testing.T) {
	m := Double()
	a, _ := m.ParseFragString("12.5")
	b, _ := m.ParseFragString("12.5")
	if !fragEqual(a, b) || !reflect.DeepEqual(a, b) {
		t.Error("equal fragments must compare equal")
	}
}

func BenchmarkParseFragCastable(b *testing.B) {
	m := Double()
	in := []byte("1234.5678")
	for i := 0; i < b.N; i++ {
		f, _ := m.ParseFrag(in)
		sinkElem = f.Elem
	}
}

func BenchmarkCombineFrag(b *testing.B) {
	m := Double()
	x, _ := m.ParseFragString("78")
	y, _ := m.ParseFragString(".230")
	for i := 0; i < b.N; i++ {
		f, _ := m.Combine(x, y)
		sinkElem = f.Elem
	}
}

func BenchmarkDoubleValue(b *testing.B) {
	m := Double()
	f, _ := m.ParseFragString("1234.5678E-3")
	for i := 0; i < b.N; i++ {
		v, _ := DoubleValue(f)
		sinkFloat = v
	}
}

var sinkFloat float64
