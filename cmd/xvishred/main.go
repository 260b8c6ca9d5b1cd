// Command xvishred shreds an XML file into an indexed, persistent
// database snapshot: the document columns plus the string index and the
// registered typed range indices (by default every registered type).
//
// Usage:
//
//	xvishred -in doc.xml -out doc.xvi
//	xvishred -in doc.xml -out doc.xvi -strip-ws -types double,date
//	xvishred -in doc.xml -out doc.xvi -wal doc.wal   # durable: reopen with OpenDurable
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	xmlvi "repro"
	"repro/internal/core"
)

func main() {
	in := flag.String("in", "", "input XML file (required)")
	out := flag.String("out", "", "output snapshot file (required)")
	stripWS := flag.Bool("strip-ws", false, "drop whitespace-only text nodes")
	noString := flag.Bool("no-string", false, "skip the string equi-index")
	var registered []string
	for _, id := range core.RegisteredTypes() {
		spec, _ := core.LookupType(id)
		registered = append(registered, spec.Name)
	}
	types := flag.String("types", strings.Join(registered, ","), "comma-separated typed range indices to build, by registered name (empty = none)")
	parallel := flag.Int("parallel", 0, "index-build worker goroutines (0 = GOMAXPROCS, 1 = serial)")
	wal := flag.String("wal", "", "write-ahead log path: the snapshot becomes a durable database (see OpenDurable)")
	walSync := flag.Int("wal-sync", 1, "fsync the WAL once every N records (with -wal; 1 = every record)")
	quiet := flag.Bool("q", false, "suppress statistics output")
	flag.Parse()
	if *in == "" || *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *parallel < 0 {
		fatal(fmt.Errorf("-parallel must be >= 0 (0 = GOMAXPROCS, 1 = serial), got %d", *parallel))
	}

	var typeIDs []core.TypeID
	for _, name := range strings.Split(*types, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		spec, ok := core.TypeByName(name)
		if !ok {
			fatal(fmt.Errorf("-types: no typed index named %q (registered: %s)", name, strings.Join(registered, ", ")))
		}
		typeIDs = append(typeIDs, spec.ID)
	}
	if *noString && len(typeIDs) == 0 {
		fatal(fmt.Errorf("at least one index must be enabled"))
	}

	xml, err := os.ReadFile(*in)
	if err != nil {
		fatal(err)
	}
	opts := xmlvi.Options{
		String:          !*noString,
		Types:           typeIDs,
		StripWhitespace: *stripWS,
		Parallelism:     *parallel,
		WAL:             *wal,
		WALSyncEvery:    *walSync,
	}
	start := time.Now()
	doc, err := xmlvi.ParseWithOptions(xml, opts)
	if err != nil {
		fatal(err)
	}
	buildTime := time.Since(start)

	start = time.Now()
	if err := doc.Save(*out); err != nil {
		fatal(err)
	}
	saveTime := time.Since(start)

	if !*quiet {
		s := doc.Stats()
		fmt.Printf("shredded %s (%d bytes) in %v, saved in %v\n", *in, len(xml), buildTime.Round(time.Millisecond), saveTime.Round(time.Millisecond))
		fmt.Printf("  nodes: %d (elements %d, texts %d, attributes %d)\n", s.Nodes, s.Elements, s.Texts, s.Attrs)
		fmt.Printf("  string index: %d postings\n", s.StringEntries)
		for _, ts := range s.Typed {
			fmt.Printf("  %s index: %d values (%d from mixed content), %d live states\n", ts.Name, ts.Castable, ts.NonLeaf, ts.Live)
		}
		if *wal != "" {
			fmt.Printf("  durable: WAL at %s (fsync every %d records); reopen with OpenDurable\n", *wal, *walSync)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xvishred:", err)
	os.Exit(1)
}
