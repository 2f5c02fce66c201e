// Command streamit-bench regenerates the tables and figures of the paper's
// evaluation (E1–E8, A1–A2 in EXPERIMENTS.md) on the simulated 16-tile
// machine and the sequential runtime. Numbers for the native runtimes come
// from `go run ./benchmark`.
//
// Usage:
//
//	streamit-bench                 # all tables
//	streamit-bench -table main     # one table: benchchar, main, finegrain,
//	                               # softpipe, thruput, vsspace, linear,
//	                               # teleport, scaling, commablation
//	streamit-bench -dur 500ms      # longer measurement windows for E7/E8
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"streamit/internal/bench"
)

func main() {
	table := flag.String("table", "all", "table to print: all, benchchar, main, finegrain, softpipe, thruput, vsspace, linear, teleport, scaling, commablation")
	dur := flag.Duration("dur", 150*time.Millisecond, "measurement window per configuration for the execution benchmarks")
	flag.Parse()

	bench.MeasureDur = *dur
	var err error
	switch *table {
	case "all":
		err = bench.PrintAll(os.Stdout)
	case "benchchar":
		err = bench.PrintBenchChar(os.Stdout)
	case "main":
		err = bench.PrintMainComparison(os.Stdout)
	case "finegrain":
		err = bench.PrintFineGrained(os.Stdout)
	case "softpipe":
		err = bench.PrintSoftPipe(os.Stdout)
	case "thruput":
		err = bench.PrintThroughput(os.Stdout)
	case "vsspace":
		err = bench.PrintVsSpace(os.Stdout)
	case "linear":
		err = bench.PrintLinear(os.Stdout)
	case "teleport":
		err = bench.PrintTeleport(os.Stdout)
	case "scaling":
		err = bench.PrintScaling(os.Stdout)
	case "commablation":
		err = bench.PrintCommAblation(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "unknown table %q\n", *table)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "streamit-bench:", err)
		os.Exit(1)
	}
}
