package fsm

import (
	"math"
	"strconv"
	"strings"
)

// Item is one piece of a fragment's lexical content: either a single
// punctuation/marker character (Punct != 0) or a run of decimal digits
// (Punct == 0) with its numeric value and length (length preserves leading
// zeros, which a bare value cannot).
type Item struct {
	Punct byte
	Val   float64
	Len   int32
}

// Frag is the per-node descriptor the typed indices store in place of the
// paper's [value, state] pair: the monoid element plus the digit runs and
// punctuation marks of the fragment, from which the canonical lexical
// representation — and hence the typed value — is reconstructed without
// reading document text. Whitespace never carries value and validity is
// entirely the element's job, so whitespace is not recorded.
//
// The zero Frag is not valid; use Machine.ParseFrag or Machine.IdentityFrag.
type Frag struct {
	Elem  Elem
	Items []Item
}

// IdentityFrag returns the fragment of the empty string.
func (m *Machine) IdentityFrag() Frag { return Frag{Elem: Identity} }

// ParseFrag runs the machine over text and captures the fragment
// descriptor. ok is false (and the Frag zero) when the text is rejected —
// it cannot occur inside any valid lexical value of the type.
func (m *Machine) ParseFrag(text []byte) (Frag, bool) { return m.AppendFrag(nil, text) }

// AppendFrag is ParseFrag with the items appended to items[:0], so a
// caller casting value after value reuses one buffer.
func (m *Machine) AppendFrag(items []Item, text []byte) (Frag, bool) {
	e := Identity
	items = items[:0]
	classOf := &m.dfa.classOf
	for _, b := range text {
		e = m.step[e][classOf[b]]
		if e == Reject {
			return Frag{}, false
		}
		if b >= '0' && b <= '9' {
			if n := len(items); n > 0 && items[n-1].Punct == 0 {
				it := &items[n-1]
				it.Val = it.Val*10 + float64(b-'0')
				it.Len++
			} else {
				items = append(items, Item{Val: float64(b - '0'), Len: 1})
			}
		} else if !isWS(b) {
			items = append(items, Item{Punct: b})
		}
	}
	return Frag{Elem: e, Items: items}, true
}

// ParseFragString is ParseFrag for a string.
func (m *Machine) ParseFragString(text string) (Frag, bool) {
	f, ok := m.ParseFrag([]byte(text))
	return f, ok
}

func isWS(b byte) bool { return b == ' ' || b == '\t' || b == '\n' || b == '\r' }

// Combine concatenates two fragments: the SCT supplies the combined
// element (ok is false when the concatenation is rejected), and boundary
// digit runs merge positionally — left-run digits become more significant:
//
//	combine("78", ".") + "230"  ⇒  78.230  (the paper's <weight> example)
//
// Combine is associative (the element by monoid composition, the items by
// concatenation), which the update algorithm and the commutative-commit
// protocol rely on. Bit for bit it is so only while merged digit runs stay
// exact in float64; see MergeExact.
func (m *Machine) Combine(a, b Frag) (Frag, bool) {
	e := m.sct[a.Elem][b.Elem]
	if e == Reject {
		return Frag{}, false
	}
	if len(b.Items) == 0 {
		return Frag{Elem: e, Items: a.Items}, true
	}
	if len(a.Items) == 0 {
		return Frag{Elem: e, Items: b.Items}, true
	}
	items := make([]Item, 0, len(a.Items)+len(b.Items))
	items = append(items, a.Items...)
	last := &items[len(items)-1]
	rest := b.Items
	if last.Punct == 0 && rest[0].Punct == 0 {
		// Adjacent digit runs merge: the SCT already guarantees no
		// whitespace separated them (it would have rejected).
		last.Val = last.Val*pow10(rest[0].Len) + rest[0].Val
		last.Len += rest[0].Len
		rest = rest[1:]
	}
	items = append(items, rest...)
	return Frag{Elem: e, Items: items}, true
}

// MergeExact reports whether Combine(a, b) merges no digit runs into one
// of more than 15 digits. A merged run of at most 15 digits is below 2^53,
// so every float64 step that builds it is exact and its value is the same
// however its pieces were grouped; a longer run's value depends on the
// grouping in its last bits.
func MergeExact(a, b Frag) bool {
	x, y := a.Items, b.Items
	return len(x) == 0 || len(y) == 0 || x[len(x)-1].Punct != 0 || y[0].Punct != 0 || x[len(x)-1].Len+y[0].Len <= 15
}

// CombineAll folds Combine left to right over frags.
func (m *Machine) CombineAll(frags ...Frag) (Frag, bool) {
	acc := m.IdentityFrag()
	for _, f := range frags {
		var ok bool
		acc, ok = m.Combine(acc, f)
		if !ok {
			return Frag{}, false
		}
	}
	return acc, true
}

// Lexical reconstructs the canonical lexical representation of the
// fragment: its digits and punctuation without surrounding whitespace.
// For digit runs of up to 15 digits the reconstruction is exact, including
// leading zeros; longer runs degrade to 17 significant digits padded to
// the recorded length (the value a cast to xs:double retains is unchanged).
func (f Frag) Lexical() string {
	var sb strings.Builder
	for _, it := range f.Items {
		if it.Punct != 0 {
			sb.WriteByte(it.Punct)
			continue
		}
		digits := strconv.FormatFloat(it.Val, 'f', 0, 64)
		switch {
		case int32(len(digits)) < it.Len:
			for i := int32(len(digits)); i < it.Len; i++ {
				sb.WriteByte('0')
			}
			sb.WriteString(digits)
		case int32(len(digits)) > it.Len:
			// Only possible when a >17-digit run's float value rounded up
			// to exactly 10^Len; the nearest Len-digit number is all nines
			// (within one ulp of the original run's value).
			for i := int32(0); i < it.Len; i++ {
				sb.WriteByte('9')
			}
		default:
			sb.WriteString(digits)
		}
	}
	return sb.String()
}

func pow10(n int32) float64 {
	if n < 0 {
		return 0
	}
	if n < int32(len(pow10Table)) {
		return pow10Table[n]
	}
	return math.Pow(10, float64(n))
}

var pow10Table = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}
