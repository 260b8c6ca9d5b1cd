// Command xviquery runs XPath queries against a snapshot produced by
// xvishred, through the cost-based query planner (or a full scan with
// -scan, for comparison).
//
// Usage:
//
//	xviquery -db doc.xvi '//person[.//age = 42]'
//	xviquery -db doc.xvi -scan -t '//item[price > 100]'
//	xviquery -db doc.xvi -explain '//item[quantity = 7 and location = "Oslo"]'
//	xviquery -db doc.xvi -planner index -t '//item[quantity = 7]'
//	xviquery -db doc.xvi -substring -explain '//person[contains(name/text(), "rthu")]'
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	xmlvi "repro"
)

func main() {
	db := flag.String("db", "", "snapshot file from xvishred (required)")
	scan := flag.Bool("scan", false, "evaluate without indices (baseline)")
	contains := flag.Bool("contains", false, "treat the argument as a substring pattern (q-gram index)")
	substring := flag.Bool("substring", false, "enable the q-gram substring index so contains()/starts-with() predicates answer through it")
	explain := flag.Bool("explain", false, "print the executed plan tree (estimated vs actual cardinalities)")
	planner := flag.String("planner", "auto", "query planning mode: auto, scan, index")
	timing := flag.Bool("t", false, "print evaluation time")
	limit := flag.Int("limit", 20, "maximum results to print (0 = all)")
	flag.Parse()
	if *db == "" || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: xviquery -db file.xvi [-scan|-contains] [-explain] [-planner mode] [-t] 'xpath expression or pattern'")
		os.Exit(2)
	}
	expr := flag.Arg(0)

	mode, err := xmlvi.ParsePlannerMode(*planner)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xviquery:", err)
		os.Exit(2)
	}
	doc, err := xmlvi.Load(*db)
	if err != nil {
		fatal(err)
	}
	doc.SetPlanner(mode)
	if *substring {
		doc.EnableSubstringIndex()
	}
	start := time.Now()
	var results []xmlvi.Result
	var plan *xmlvi.Explain
	switch {
	case *contains:
		if !*scan {
			doc.EnableSubstringIndex()
			start = time.Now() // the one-time index build is not query time
		}
		results = doc.Contains(expr)
	case *scan:
		results, err = doc.QueryScan(expr)
	case *explain:
		results, plan, err = doc.Explain(expr)
	default:
		results, err = doc.Query(expr)
	}
	elapsed := time.Since(start)
	if err != nil {
		fatal(err)
	}
	if plan != nil {
		fmt.Print(plan.String())
	}

	for i, r := range results {
		if *limit > 0 && i >= *limit {
			fmt.Printf("... and %d more\n", len(results)-i)
			break
		}
		v := r.Value()
		if len(v) > 60 {
			v = v[:57] + "..."
		}
		fmt.Printf("%s = %q%s\n", r.Path(), v, typedColumn(doc, r))
	}
	fmt.Printf("%d result(s)\n", len(results))
	if *timing {
		mode := "indexed"
		if *scan {
			mode = "scan"
		}
		if *contains {
			mode = "substring " + mode
		}
		fmt.Printf("evaluated (%s) in %v\n", mode, elapsed)
	}
}

// typedColumn annotates a hit with its typed readings: the xs:date value
// when the node casts as a date (attributes are not annotated — the
// typed accessors are node-based).
func typedColumn(doc *xmlvi.Document, r xmlvi.Result) string {
	if r.IsAttr {
		return ""
	}
	if d, ok := doc.DateValue(r.Node); ok {
		return "  [xs:date " + d.Format("2006-01-02") + "]"
	}
	return ""
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xviquery:", err)
	os.Exit(1)
}
