// Command streamitc compiles and analyzes a StreamIt (.str) program: it
// parses and elaborates the stream graph, verifies it (rates, deadlock,
// buffer growth), computes the schedule, runs the linear analysis, and
// prints a compilation report.
//
// Usage:
//
//	streamitc [-top Main] [-linear] [-maxitems N] prog.str
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"streamit/internal/core"
	"streamit/internal/faults"
	"streamit/internal/ir"
	"streamit/internal/linear"
)

func main() {
	top := flag.String("top", "Main", "top-level stream to elaborate")
	doLinear := flag.Bool("linear", false, "apply linear combination before scheduling")
	verify := flag.Bool("verify", false, "with -linear: cross-check every generated replacement kernel against its linear representation")
	maxItems := flag.Int("maxitems", 0, "bound total live items in the schedule (0 = unbounded)")
	dot := flag.Bool("dot", false, "emit the flattened stream graph in Graphviz DOT format instead of the report")
	sdepPair := flag.String("sdep", "", "print the sdep table between two instances named with 'as', e.g. -sdep mid,out")
	faultSpec := flag.String("faults", "", "validate a fault-injection spec against the program and print the materialized schedule")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: streamitc [flags] prog.str")
		flag.PrintDefaults()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "streamitc:", err)
		os.Exit(1)
	}
	opts := core.Options{MaxLiveItems: *maxItems, CheckFeedback: true}
	if *doLinear {
		lo := linear.Options{Combine: true, Verify: *verify}
		opts.Linear = &lo
	}
	c, err := core.CompileSource(string(src), *top, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "streamitc:", err)
		os.Exit(1)
	}
	if *dot {
		fmt.Print(c.Graph.Dot())
		return
	}
	if *sdepPair != "" {
		parts := strings.SplitN(*sdepPair, ",", 2)
		if len(parts) != 2 {
			fmt.Fprintln(os.Stderr, "streamitc: -sdep wants two comma-separated instance names")
			os.Exit(2)
		}
		tbl, err := c.SdepTable(strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1]), 24)
		if err != nil {
			fmt.Fprintln(os.Stderr, "streamitc:", err)
			os.Exit(1)
		}
		fmt.Print(tbl)
		return
	}
	fmt.Print(c.Report())
	if *faultSpec != "" {
		plan, err := faults.ParsePlan(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "streamitc:", err)
			os.Exit(1)
		}
		var names []string
		for _, n := range c.Graph.Nodes {
			if n.Kind == ir.NodeFilter {
				names = append(names, n.Name)
			}
		}
		sched, err := plan.Materialize(names)
		if err != nil {
			fmt.Fprintln(os.Stderr, "streamitc:", err)
			os.Exit(1)
		}
		fmt.Println("\nfault schedule (deterministic):")
		for _, f := range sched {
			fmt.Printf("  %s\n", f)
		}
	}
}
