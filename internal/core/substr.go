package core

// The q-gram substring index — the extension the paper names as future
// work in its conclusions ("indices capable of answering queries that
// involve substring matching"). It follows the same design constraints
// as the value indices:
//
//   - generic: covers every text-node and attribute value, no configured
//     paths (element string values concatenate descendant text, so only
//     leaf operands are index targets);
//   - compact: stores 32-bit gram hashes and packed postings, never text;
//   - candidate-based: lookups intersect the pattern's gram posting
//     lists and verify every candidate against the document, so gram
//     collisions cost time, never correctness.
//
// The index is the Snapshot's last family: enabling it appends a gram
// family to the current version, and from then on every commit path
// maintains it through the same family loop as the hash and typed
// indexes. Readers pin one version for candidate retrieval and
// verification, exactly like the other indices.

import (
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/storage"
	"repro/internal/xmltree"
)

// SubstrQ is the gram length. Three balances selectivity against index
// size for the evaluation corpora (mostly ASCII text). Grams are byte
// windows, so multi-byte UTF-8 runes span grams rather than forming
// their own; patterns shorter than SubstrQ bytes cannot use the index.
const SubstrQ = 3

// substrGramHash hashes one q-gram into the B+tree key space. FNV-style
// mixing keeps distinct grams distinct with high probability; collisions
// only add verification work.
func substrGramHash(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	return h
}

// appendGrams appends the ascending, deduplicated gram-hash set of a
// value to buf; nothing for values shorter than SubstrQ bytes.
func appendGrams(buf []uint64, b []byte) []uint64 {
	if len(b) < SubstrQ {
		return buf
	}
	start := len(buf)
	for i := 0; i+SubstrQ <= len(b); i++ {
		buf = append(buf, uint64(substrGramHash(b[i:i+SubstrQ])))
	}
	grams := buf[start:]
	slices.Sort(grams)
	return buf[:start+len(slices.Compact(grams))]
}

// EnableSubstring builds the q-gram substring index over the current
// version and republishes it. Idempotent. The version number is NOT
// bumped: enabling an index is a local, deterministic enrichment of the
// same document state, not a replicated mutation, so followers applying
// shipped records (which insist on version+1 continuity) can enable it
// independently of the leader. Once enabled, every subsequent commit
// maintains the index copy-on-write, and Save/Checkpoint persist it.
func (ix *Indexes) EnableSubstring() {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	s := ix.cur.Load()
	if s.grams() != nil {
		return
	}
	d := *s
	g := &gramFamily{}
	d.fams = append(slices.Clip(s.fams), g)
	d.loadTrees([]family{g}, s.opts.workers())
	ix.publish(&d)
}

// gramFamily is the substring index as an index family: one entry per
// (gram, posting) over text-node and attribute values. Its keys come
// straight from the document, so it keeps no state and folds nothing.
type gramFamily struct{ postingTree }

func (g *gramFamily) label() string          { return "substring" }
func (g *gramFamily) postings() *postingTree { return &g.postingTree }

// keys: text nodes and attributes only — element string values
// concatenate descendant text, so only leaf operands are index targets.
func (g *gramFamily) keys(s *Snapshot, p Posting, buf []uint64) []uint64 {
	if !p.IsAttr && s.doc.Kind(p.Node) != xmltree.Text {
		return buf
	}
	return appendGrams(buf, s.valueBytes(p))
}

func (g *gramFamily) leaf(*Snapshot, Posting, []byte)                             {}
func (g *gramFamily) refold(*Snapshot, xmltree.NodeID, []int32, []xmltree.NodeID) {}
func (g *gramFamily) checkPartials(*Snapshot) error                               { return nil }
func (g *gramFamily) check(*Snapshot, Posting, []byte) error                      { return nil }
func (g *gramFamily) folder(*Snapshot, bool) folder                               { return nil }
func (g *gramFamily) splice(*Snapshot, int, int, int, int)                        {}
func (g *gramFamily) addStats(_ *Snapshot, st *IndexStats) {
	st.SubstringEntries = g.tree.Len()
	st.SubstringBytes = st.SubstringEntries * 8
}

func (g *gramFamily) draft() family {
	return &gramFamily{g.postingTree.clone()}
}

func (g *gramFamily) addMem(ms *MemStats) {
	ms.SubstrTreeBytes = g.tree.MemBytes()
}

// save persists the gram tree; its statistics are rebuilt on load.
func (g *gramFamily) save(w *storage.Writer) error { return saveTree(w, SectionSubstr, g.tree) }

func (g *gramFamily) load(r *storage.Reader) (err error) {
	g.tree, err = loadTree(r, SectionSubstr)
	return err
}

// HasSubstring reports whether the substring index is enabled on this
// version.
func (ix *Snapshot) HasSubstring() bool { return ix.grams() != nil }

// Contains returns the text and attribute nodes of this version whose
// value contains pattern, verified against the document, in document
// order (text nodes first, then attributes — the same order as
// ScanContains, so index and scan answers are byte-identical). Patterns
// shorter than SubstrQ bytes, and snapshots without the index, fall back
// to a scan.
func (ix *Snapshot) Contains(pattern string) []Posting {
	if ix.grams() == nil || len(pattern) < SubstrQ {
		return ix.ScanContains(pattern)
	}
	return ix.substrLookup(pattern, false)
}

// StartsWith is Contains for prefix matching: values starting with
// pattern. A prefix match implies a substring match, so the gram
// intersection yields a candidate superset and verification tightens it.
func (ix *Snapshot) StartsWith(pattern string) []Posting {
	if ix.grams() == nil || len(pattern) < SubstrQ {
		return ix.ScanStartsWith(pattern)
	}
	return ix.substrLookup(pattern, true)
}

// substrLookup intersects the pattern's gram posting lists (rarest
// first), verifies every surviving candidate against the pinned
// document, and returns the hits in scan order.
func (ix *Snapshot) substrLookup(pattern string, prefix bool) []Posting {
	cand := ix.substrCandidates(pattern)
	var nodes, attrs []Posting
	for _, packed := range cand {
		p, ok := ix.resolve(packed)
		if !ok {
			continue
		}
		if !ix.substrMatch(p, pattern, prefix) {
			continue
		}
		if p.IsAttr {
			attrs = append(attrs, p)
		} else {
			nodes = append(nodes, p)
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Node < nodes[j].Node })
	sort.Slice(attrs, func(i, j int) bool { return attrs[i].Attr < attrs[j].Attr })
	return append(nodes, attrs...)
}

// substrCandidates returns the packed postings surviving the gram
// intersection, unverified, in ascending packed order. Gram lists are
// delta-varint encoded straight off the tree scan and intersected by
// streaming decoders (see postings.go); only the survivors are widened
// to uint32. Callers must have checked len(pattern) >= SubstrQ and
// the index is enabled.
func (ix *Snapshot) substrCandidates(pattern string) []uint32 {
	grams := appendGrams(nil, []byte(pattern))
	tree := ix.grams().tree
	lists := make([]packedPostings, 0, len(grams))
	for _, g := range grams {
		var list packedPostings
		tree.ScanEq(g, func(v uint32) bool {
			list.push(v)
			return true
		})
		if list.n == 0 {
			return nil
		}
		lists = append(lists, list)
	}
	sort.Slice(lists, func(i, j int) bool { return lists[i].n < lists[j].n })
	cand := lists[0]
	for _, l := range lists[1:] {
		cand = intersectPostings(cand, l)
		if cand.n == 0 {
			return nil
		}
	}
	return cand.decode(make([]uint32, 0, cand.n))
}

// substrMatch verifies one candidate's indexed value (a text node's own
// value or an attribute value) against the pattern.
func (ix *Snapshot) substrMatch(p Posting, pattern string, prefix bool) bool {
	var v string
	if p.IsAttr {
		v = ix.doc.AttrValue(p.Attr)
	} else {
		v = ix.doc.Value(p.Node)
	}
	if prefix {
		return strings.HasPrefix(v, pattern)
	}
	return strings.Contains(v, pattern)
}

// ScanContains is the index-less substring baseline: check every text
// and attribute value of this version. Tests use it as ground truth.
func (ix *Snapshot) ScanContains(pattern string) []Posting {
	return ix.scanSubstr(pattern, false)
}

// ScanStartsWith is the index-less prefix baseline.
func (ix *Snapshot) ScanStartsWith(pattern string) []Posting {
	return ix.scanSubstr(pattern, true)
}

func (ix *Snapshot) scanSubstr(pattern string, prefix bool) []Posting {
	doc := ix.doc
	match := func(v string) bool {
		if prefix {
			return strings.HasPrefix(v, pattern)
		}
		return strings.Contains(v, pattern)
	}
	var out []Posting
	for i := 0; i < doc.NumNodes(); i++ {
		n := xmltree.NodeID(i)
		if doc.Kind(n) == xmltree.Text && match(doc.Value(n)) {
			out = append(out, NodePosting(n))
		}
	}
	for a := 0; a < doc.NumAttrs(); a++ {
		if match(doc.AttrValue(xmltree.AttrID(a))) {
			out = append(out, AttrPosting(xmltree.AttrID(a)))
		}
	}
	return out
}

// SubstrIter streams the verified substring (or prefix) hits as a
// posting iterator for the planner's executor, ascending. The hits are
// materialised up front — the gram intersection needs all lists anyway —
// and drained through the iterator's pending queue.
func (ix *Snapshot) SubstrIter(pattern string, prefix bool) *PostingIter {
	var hits []Posting
	if ix.grams() != nil && len(pattern) >= SubstrQ {
		hits = ix.substrLookup(pattern, prefix)
	} else if prefix {
		hits = ix.ScanStartsWith(pattern)
	} else {
		hits = ix.ScanContains(pattern)
	}
	// pending drains LIFO, so queue in reverse to emit in order.
	for i, j := 0, len(hits)-1; i < j; i, j = i+1, j-1 {
		hits[i], hits[j] = hits[j], hits[i]
	}
	return &PostingIter{ix: ix, pending: hits}
}

// EstimateSubstr estimates the candidate postings a substring access
// path must verify: the minimum per-gram estimate across the pattern's
// grams (the intersection can only shrink the rarest list). Zero when
// the pattern is too short or the index is absent.
func (ix *Snapshot) EstimateSubstr(pattern string) float64 {
	g := ix.grams()
	if g == nil || g.stats == nil || len(pattern) < SubstrQ {
		return 0
	}
	est := math.MaxFloat64
	for _, gram := range appendGrams(nil, []byte(pattern)) {
		if e := g.stats.estimateEq(gram); e < est {
			est = e
		}
	}
	if est == math.MaxFloat64 {
		return 0
	}
	return est
}
