// Package experiments implements the paper's evaluation (Section 6) as
// typed, reusable runners: Table 1 (dataset statistics), Figure 9 (index
// creation time and storage overhead), Figure 10 (update time versus
// batch size), Figure 11 (hash stability), and the ablations DESIGN.md
// calls out (A1–A5). The xvibench command is the thin wrapper over these
// runners; each runner's Test*ShapesHold checks the paper's shape.
package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/fsm"
	"repro/internal/storage"
	"repro/internal/vhash"
	"repro/internal/xmlparse"
	"repro/internal/xmltree"
)

// Config controls dataset scale and selection for all runners.
type Config struct {
	// Scale multiplies the calibrated dataset sizes (1.0 ≈ 1/64 of the
	// paper's node counts; see datagen).
	Scale float64
	// Seed drives all pseudo-randomness.
	Seed int64
	// Datasets selects which Table 1 rows to run; nil means all eight.
	Datasets []string
	// Repeat is the number of measurements averaged per point (the paper
	// uses 3 for creation and 20 for updates).
	Repeat int
	// Parallelism is passed through to core.Options.Parallelism for
	// every index build: 0 means GOMAXPROCS, 1 forces the serial path.
	Parallelism int
	// TempDir receives snapshot files for the storage measurements;
	// defaults to os.TempDir().
	TempDir string
	// WAL, when true, runs the update experiments (Figure 10) durably:
	// each measured index gets a write-ahead log in TempDir, so the
	// reported times include logical logging and fsyncs.
	WAL bool
	// WALSyncEvery batches WAL fsyncs (<= 1 = sync every record); only
	// meaningful with WAL.
	WALSyncEvery int
	// CheckpointEvery, with WAL, checkpoints (snapshot rewrite + log
	// truncation) after every N measured update batches; 0 never
	// checkpoints during a run. Checkpoints happen outside the timed
	// windows — the figures measure update cost, not snapshot cost.
	CheckpointEvery int
}

// buildOpts stamps the configured parallelism onto build options.
func (c Config) buildOpts(o core.Options) core.Options {
	o.Parallelism = c.Parallelism
	return o
}

// DefaultConfig returns the laptop-scale defaults.
func DefaultConfig() Config {
	return Config{Scale: 0.25, Seed: 42, Repeat: 3}
}

func (c Config) datasets() []string {
	if len(c.Datasets) > 0 {
		return c.Datasets
	}
	return datagen.Names
}

func (c Config) repeat() int {
	if c.Repeat > 0 {
		return c.Repeat
	}
	return 3
}

func (c Config) tempDir() string {
	if c.TempDir != "" {
		return c.TempDir
	}
	return os.TempDir()
}

// prepared caches a generated and shredded dataset.
type prepared struct {
	name    string
	xml     []byte
	doc     *xmltree.Doc
	shredNS int64
}

// warmMachines forces the one-time FSM monoid/SCT compilation outside
// any timed region (it is a per-process system cost, like loading the
// paper's SCT tables, not a per-document cost).
func warmMachines() {
	fsm.Double()
	fsm.DateTime()
}

func (c Config) prepare(name string) (*prepared, error) {
	warmMachines()
	xml, err := datagen.Generate(name, c.Scale, c.Seed)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	doc, err := xmlparse.Parse(xml)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", name, err)
	}
	return &prepared{name: name, xml: xml, doc: doc, shredNS: time.Since(start).Nanoseconds()}, nil
}

// --- E1: Table 1 ---

// Table1Row mirrors one row of the paper's Table 1, measured on the
// generated stand-in, next to the paper's reported percentages.
type Table1Row struct {
	Dataset     string
	SizeMB      float64
	TotalNodes  int // elements + texts (Table 1 arithmetic)
	TextNodes   int
	TextPct     float64
	DoubleTexts int // castable text nodes ("Double Values")
	DoublePct   float64
	NonLeaf     int
	DateValues  int // castable xs:date values (texts + attributes)
	DatePct     float64

	PaperTextPct   float64
	PaperDoublePct float64
	PaperNonLeaf   int
}

// RunTable1 measures dataset statistics for every configured dataset.
func RunTable1(cfg Config) ([]Table1Row, error) {
	var rows []Table1Row
	for _, name := range cfg.datasets() {
		p, err := cfg.prepare(name)
		if err != nil {
			return nil, err
		}
		ix := core.Build(p.doc, cfg.buildOpts(core.Options{Double: true, Date: true}))
		s := ix.Snapshot().Stats()
		total := s.Elements + s.Texts
		// Match the double column's arithmetic: castable TEXT nodes over
		// elements+texts, so the two typed columns are comparable.
		dateStats, _ := s.TypedFor(core.TypeDate)
		paper := datagen.PaperTable1[name]
		rows = append(rows, Table1Row{
			Dataset:        name,
			SizeMB:         float64(len(p.xml)) / (1 << 20),
			TotalNodes:     total,
			TextNodes:      s.Texts,
			TextPct:        pct(s.Texts, total),
			DoubleTexts:    s.DoubleCastableTexts,
			DoublePct:      pct(s.DoubleCastableTexts, total),
			NonLeaf:        s.DoubleNonLeaf,
			DateValues:     dateStats.CastableTexts,
			DatePct:        pct(dateStats.CastableTexts, total),
			PaperTextPct:   paper.TextPct,
			PaperDoublePct: paper.DoublePct,
			PaperNonLeaf:   paper.NonLeaf,
		})
	}
	return rows, nil
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// --- E2–E5: Figure 9 ---

// Fig9Row holds one dataset's creation-time and storage measurements for
// both indices, plus the overhead ratios the paper's bars visualise.
type Fig9Row struct {
	Dataset string

	ShredMS     float64
	StringIdxMS float64
	DoubleIdxMS float64
	// Overhead percentages relative to shredding (the paper's bars show
	// index time stacked over shred time).
	StringTimePct float64
	DoubleTimePct float64

	DBBytes        int64
	StringIdxBytes int64
	DoubleIdxBytes int64
	StringSizePct  float64
	DoubleSizePct  float64
}

// RunFig9 measures index creation time against shredding time (Figure 9
// top) and persisted index size against database size (Figure 9 bottom).
// As in the paper's pipeline, each stage includes writing its store:
// shredding parses and persists the document columns; index creation
// builds and persists the index sections.
func RunFig9(cfg Config) ([]Fig9Row, error) {
	warmMachines()
	var rows []Fig9Row
	for _, name := range cfg.datasets() {
		xml, err := datagen.Generate(name, cfg.Scale, cfg.Seed)
		if err != nil {
			return nil, err
		}
		stage := filepath.Join(cfg.tempDir(), "xvibench-stage-"+name+".part")
		var shredNS, strNS, dblNS int64
		var ix *core.Indexes
		for r := 0; r < cfg.repeat(); r++ {
			start := time.Now()
			doc, err := xmlparse.Parse(xml)
			if err != nil {
				return nil, err
			}
			// Persisting the document store is part of shredding; the
			// SaveParts carrier needs an index handle, so use an empty
			// index set over the document.
			docOnly := core.Build(doc, cfg.buildOpts(core.Options{}))
			if err := docOnly.Snapshot().SavePartsTo(stage, core.SaveParts{Doc: true}); err != nil {
				return nil, err
			}
			shredNS += time.Since(start).Nanoseconds()

			start = time.Now()
			sIx := core.Build(doc, cfg.buildOpts(core.Options{String: true}))
			if err := sIx.Snapshot().SavePartsTo(stage, core.SaveParts{String: true}); err != nil {
				return nil, err
			}
			strNS += time.Since(start).Nanoseconds()

			start = time.Now()
			dIx := core.Build(doc, cfg.buildOpts(core.Options{Double: true}))
			if err := dIx.Snapshot().SavePartsTo(stage, core.SaveParts{Double: true}); err != nil {
				return nil, err
			}
			dblNS += time.Since(start).Nanoseconds()

			if r == cfg.repeat()-1 {
				ix = core.Build(doc, cfg.buildOpts(core.DefaultOptions()))
			}
		}
		os.Remove(stage)
		n := int64(cfg.repeat())
		row := Fig9Row{
			Dataset:     name,
			ShredMS:     float64(shredNS/n) / 1e6,
			StringIdxMS: float64(strNS/n) / 1e6,
			DoubleIdxMS: float64(dblNS/n) / 1e6,
		}
		row.StringTimePct = 100 * row.StringIdxMS / (row.ShredMS + row.StringIdxMS)
		row.DoubleTimePct = 100 * row.DoubleIdxMS / (row.ShredMS + row.DoubleIdxMS)

		// Storage: persist and read back section sizes.
		path := filepath.Join(cfg.tempDir(), "xvibench-"+name+".xvi")
		if err := ix.Save(path); err != nil {
			return nil, err
		}
		r, err := storage.OpenReader(path)
		if err != nil {
			return nil, err
		}
		row.DBBytes = r.SectionLen(core.SectionDoc)
		row.StringIdxBytes = r.SectionLen(core.SectionStrTree)
		row.DoubleIdxBytes = r.SectionLen(core.TypedSectionName(core.TypeDouble))
		r.Close()
		os.Remove(path)
		row.StringSizePct = 100 * float64(row.StringIdxBytes) / float64(row.DBBytes+row.StringIdxBytes)
		row.DoubleSizePct = 100 * float64(row.DoubleIdxBytes) / float64(row.DBBytes+row.DoubleIdxBytes)
		rows = append(rows, row)
	}
	return rows, nil
}

// --- E6–E7: Figure 10 ---

// Fig10Point is one (dataset, batch size) update-time measurement for
// both indices.
type Fig10Point struct {
	Dataset  string
	Updated  int
	StringMS float64
	DoubleMS float64
}

// Fig10Batches are the paper's x-axis points (1 … 10^5; the paper extends
// to 10^6 on its larger documents — bounded here by available text
// nodes).
var Fig10Batches = []int{1, 10, 100, 1000, 10000, 100000}

// RunFig10 measures the Figure 8 batch-update algorithm: random text
// nodes receive new random values, separately against a string-only and a
// double-only index, averaged over cfg.Repeat runs.
func RunFig10(cfg Config) ([]Fig10Point, error) {
	var points []Fig10Point
	for _, name := range cfg.datasets() {
		p, err := cfg.prepare(name)
		if err != nil {
			return nil, err
		}
		var texts []xmltree.NodeID
		for i := 0; i < p.doc.NumNodes(); i++ {
			if p.doc.Kind(xmltree.NodeID(i)) == xmltree.Text {
				texts = append(texts, xmltree.NodeID(i))
			}
		}
		strIx := core.Build(p.doc, cfg.buildOpts(core.Options{String: true}))
		dblIx := core.Build(p.doc, cfg.buildOpts(core.Options{Double: true}))
		if cfg.WAL {
			// Durable mode: measure update throughput with write-ahead
			// logging attached (the -wal / -checkpoint-every wiring).
			for ixName, ix := range map[string]*core.Indexes{"str": strIx, "dbl": dblIx} {
				base := filepath.Join(cfg.tempDir(), fmt.Sprintf("fig10-%s-%s", name, ixName))
				if err := ix.StartDurable(base+".xvi", base+".wal", cfg.WALSyncEvery); err != nil {
					return nil, err
				}
				defer os.Remove(base + ".xvi")
				defer os.Remove(base + ".wal")
				defer ix.CloseWAL()
			}
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		measured := 0
		for _, batch := range Fig10Batches {
			if batch > len(texts) {
				break
			}
			var strNS, dblNS int64
			for r := 0; r < cfg.repeat(); r++ {
				updates := randomUpdates(rng, texts, batch)
				start := time.Now()
				if err := strIx.UpdateTexts(updates); err != nil {
					return nil, err
				}
				strNS += time.Since(start).Nanoseconds()

				updates = randomUpdates(rng, texts, batch)
				start = time.Now()
				if err := dblIx.UpdateTexts(updates); err != nil {
					return nil, err
				}
				dblNS += time.Since(start).Nanoseconds()

				measured++
				if cfg.WAL && cfg.CheckpointEvery > 0 && measured%cfg.CheckpointEvery == 0 {
					if err := strIx.Checkpoint(); err != nil {
						return nil, err
					}
					if err := dblIx.Checkpoint(); err != nil {
						return nil, err
					}
				}
			}
			n := int64(cfg.repeat())
			points = append(points, Fig10Point{
				Dataset:  name,
				Updated:  batch,
				StringMS: float64(strNS/n) / 1e6,
				DoubleMS: float64(dblNS/n) / 1e6,
			})
		}
	}
	return points, nil
}

func randomUpdates(rng *rand.Rand, texts []xmltree.NodeID, n int) []core.TextUpdate {
	updates := make([]core.TextUpdate, 0, n)
	seen := make(map[xmltree.NodeID]bool, n)
	for len(updates) < n && len(seen) < len(texts) {
		t := texts[rng.Intn(len(texts))]
		if seen[t] {
			continue
		}
		seen[t] = true
		var v string
		switch rng.Intn(4) {
		case 0:
			v = fmt.Sprintf("%d.%02d", rng.Intn(1000), rng.Intn(100))
		case 1:
			v = fmt.Sprint(rng.Intn(100000))
		case 2:
			v = fmt.Sprintf("updated text %d", rng.Intn(1000))
		default:
			v = fmt.Sprintf("w%d w%d w%d", rng.Intn(50), rng.Intn(50), rng.Intn(50))
		}
		updates = append(updates, core.TextUpdate{Node: t, Value: v})
	}
	return updates
}

// --- E8: Figure 11 ---

// Fig11Row is one histogram bucket: HashValues hash values have exactly
// ClusterSize distinct strings mapping to them.
type Fig11Row struct {
	Dataset     string
	ClusterSize int
	HashValues  int
}

// Fig11Summary aggregates a dataset's collision behaviour.
type Fig11Summary struct {
	Dataset         string
	DistinctStrings int
	DistinctHashes  int
	CollidingPct    float64 // distinct strings sharing their hash with another
	MaxCluster      int
}

// RunFig11 measures the hash-stability distribution: for every dataset,
// the number of distinct text/attribute string values per hash value.
func RunFig11(cfg Config) ([]Fig11Row, []Fig11Summary, error) {
	var rows []Fig11Row
	var sums []Fig11Summary
	for _, name := range cfg.datasets() {
		p, err := cfg.prepare(name)
		if err != nil {
			return nil, nil, err
		}
		clusters := make(map[uint32]map[string]struct{})
		add := func(s string) {
			h := vhash.HashString(s)
			set := clusters[h]
			if set == nil {
				set = make(map[string]struct{})
				clusters[h] = set
			}
			set[s] = struct{}{}
		}
		doc := p.doc
		for i := 0; i < doc.NumNodes(); i++ {
			if doc.Kind(xmltree.NodeID(i)) == xmltree.Text {
				add(doc.Value(xmltree.NodeID(i)))
			}
		}
		for a := 0; a < doc.NumAttrs(); a++ {
			add(doc.AttrValue(xmltree.AttrID(a)))
		}
		hist := make(map[int]int)
		distinct, colliding, maxCluster := 0, 0, 0
		for _, set := range clusters {
			k := len(set)
			hist[k]++
			distinct += k
			if k > 1 {
				colliding += k
			}
			if k > maxCluster {
				maxCluster = k
			}
		}
		for k := 1; k <= maxCluster; k++ {
			if hist[k] > 0 {
				rows = append(rows, Fig11Row{Dataset: name, ClusterSize: k, HashValues: hist[k]})
			}
		}
		sums = append(sums, Fig11Summary{
			Dataset:         name,
			DistinctStrings: distinct,
			DistinctHashes:  len(clusters),
			CollidingPct:    pct(colliding, distinct),
			MaxCluster:      maxCluster,
		})
	}
	return rows, sums, nil
}
