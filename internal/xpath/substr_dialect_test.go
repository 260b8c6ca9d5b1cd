package xpath

import (
	"testing"
)

// Dialect tests for the text-predicate extension: contains(operand, lit)
// and starts-with(operand, lit) inside predicates, on dot, relative
// paths, text() and attribute operands, checked on the scan evaluator
// (internal/plan holds the substring access path to the same answers).

func TestContainsPredicateShapes(t *testing.T) {
	xml := `<site><person id="person1"><name>Arthur Dent</name><mail>mailto:art@ex</mail></person>` +
		`<person id="person2"><name>Ford Prefect</name><mail>mailto:ford@ex</mail></person></site>`

	hits, doc := evalScan(t, xml, `//person[contains(name/text(), "rthu")]`)
	if len(hits) != 1 || doc.Name(hits[0].Node) != "person" {
		t.Errorf("contains rel text() = %v", names(doc, hits))
	}
	hits, _ = evalScan(t, xml, `//person[contains(mail, "mailto:")]`)
	if len(hits) != 2 {
		t.Errorf("contains element rel = %d hits, want 2", len(hits))
	}
	hits, _ = evalScan(t, xml, `//name/text()[contains(., "Dent")]`)
	if len(hits) != 1 {
		t.Errorf("contains dot on text() = %d", len(hits))
	}
	hits, _ = evalScan(t, xml, `//person[starts-with(@id, "person2")]`)
	if len(hits) != 1 {
		t.Errorf("starts-with attr = %d", len(hits))
	}
	hits, _ = evalScan(t, xml, `//person/@id[starts-with(., "person")]`)
	if len(hits) != 2 {
		t.Errorf("starts-with dot on attr step = %d", len(hits))
	}
	// starts-with anchors at the beginning: a mid-string match is not one.
	hits, _ = evalScan(t, xml, `//person[starts-with(name/text(), "Dent")]`)
	if len(hits) != 0 {
		t.Errorf("starts-with matched mid-string: %d", len(hits))
	}
	// Conjunction with a value predicate.
	hits, _ = evalScan(t, xml, `//person[contains(mail, "mailto:") and @id = "person1"]`)
	if len(hits) != 1 {
		t.Errorf("contains+eq conjunction = %d", len(hits))
	}
	// Existential semantics: any selected node may match.
	hits, _ = evalScan(t, `<r><p><w>abc</w><w>xyz</w></p></r>`, `//p[contains(w, "xyz")]`)
	if len(hits) != 1 {
		t.Errorf("existential contains = %d", len(hits))
	}
}

func TestContainsEmptyAndUnicodePatterns(t *testing.T) {
	xml := `<r><a>héllo wörld</a><b>日本語テキスト</b><c></c></r>`
	// The empty pattern is contained in (and a prefix of) every string.
	hits, _ := evalScan(t, xml, `//a/text()[contains(., "")]`)
	if len(hits) != 1 {
		t.Errorf("empty contains = %d", len(hits))
	}
	hits, _ = evalScan(t, xml, `//a/text()[starts-with(., "")]`)
	if len(hits) != 1 {
		t.Errorf("empty starts-with = %d", len(hits))
	}
	hits, _ = evalScan(t, xml, `//b[contains(., "本語テ")]`)
	if len(hits) != 1 {
		t.Errorf("unicode contains = %d", len(hits))
	}
	hits, _ = evalScan(t, xml, `//b[starts-with(., "日本")]`)
	if len(hits) != 1 {
		t.Errorf("unicode starts-with = %d", len(hits))
	}
}

func TestContainsParseErrors(t *testing.T) {
	for _, q := range []string{
		`//a[contains(]`,
		`//a[contains(name)]`,
		`//a[contains(name,)]`,
		`//a[contains(name, "x"`,
		`//a[contains("x", name)]`,
		`//a[starts-with(name, 42)]`,
		`//a[unknown-fn(name, "x")]`,
	} {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) accepted a malformed text predicate", q)
		}
	}
}
