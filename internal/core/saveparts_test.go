package core

import (
	"path/filepath"
	"testing"

	"repro/internal/storage"
	"repro/internal/xmltree"
)

func TestSavePartsSelectsSections(t *testing.T) {
	ix := buildPerson(t)
	dir := t.TempDir()

	cases := []struct {
		name    string
		parts   SaveParts
		present []string
		absent  []string
	}{
		{
			name:    "doc-only",
			parts:   SaveParts{Doc: true},
			present: []string{SectionDoc},
			absent:  []string{SectionStrTree, TypedSectionName(TypeDouble), TypedSectionName(TypeDateTime)},
		},
		{
			name:    "string-only",
			parts:   SaveParts{String: true},
			present: []string{SectionStrTree},
			absent:  []string{SectionDoc, TypedSectionName(TypeDouble)},
		},
		{
			name:    "double-only",
			parts:   SaveParts{Types: []TypeID{TypeDouble}},
			present: []string{TypedSectionName(TypeDouble)},
			absent:  []string{SectionDoc, SectionStrTree, TypedSectionName(TypeDateTime)},
		},
		{
			name:    "datetime-only",
			parts:   SaveParts{Types: []TypeID{TypeDateTime}},
			present: []string{TypedSectionName(TypeDateTime)},
			absent:  []string{TypedSectionName(TypeDouble)},
		},
	}
	for _, c := range cases {
		path := filepath.Join(dir, c.name+".part")
		if err := ix.Snapshot().SavePartsTo(path, c.parts); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		r, err := storage.OpenReader(path)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, s := range c.present {
			if r.SectionLen(s) <= 0 {
				t.Errorf("%s: section %s missing or empty", c.name, s)
			}
		}
		for _, s := range c.absent {
			if r.SectionLen(s) != -1 {
				t.Errorf("%s: unexpected section %s", c.name, s)
			}
		}
		r.Close()
	}
}

func TestSavePartsSizesOrdering(t *testing.T) {
	// The storage-shape claim behind Figure 9 bottom at unit scale:
	// double section < string sections < doc section, even on the tiny
	// person document's relatives at larger synthetic scale.
	doc := randomNumericDocForSizes(t)
	ix := Build(doc, DefaultOptions())
	dir := t.TempDir()
	write := func(name string, p SaveParts) int64 {
		path := filepath.Join(dir, name)
		if err := ix.Snapshot().SavePartsTo(path, p); err != nil {
			t.Fatal(err)
		}
		r, err := storage.OpenReader(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		var total int64
		for _, s := range r.Sections() {
			total += r.SectionLen(s)
		}
		return total
	}
	docBytes := write("d", SaveParts{Doc: true})
	strBytes := write("s", SaveParts{String: true})
	dblBytes := write("x", SaveParts{Types: []TypeID{TypeDouble}})
	if !(dblBytes < strBytes && strBytes < docBytes) {
		t.Errorf("size ordering violated: dbl %d, str %d, doc %d", dblBytes, strBytes, docBytes)
	}
}

func randomNumericDocForSizes(t *testing.T) *xmltree.Doc {
	t.Helper()
	xml := "<r>"
	for i := 0; i < 500; i++ {
		xml += "<item><name>some descriptive words here</name><price>12.34</price></item>"
	}
	xml += "</r>"
	return mustParseForTest(t, xml)
}
