package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"streamit/internal/partition"
)

// PrintBenchChar renders the E1 table.
func PrintBenchChar(w io.Writer) error {
	rows, err := BenchChar()
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Figure benchchar: benchmark characteristics (sorted by stateful work)")
	fmt.Fprintln(tw, "Benchmark\tFilters\tPeeking\tStateful\tShortest\tLongest\tComp/Comm\tStateful work")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%.1f\t%.1f%%\n",
			r.Name, r.Filters, r.Peeking, r.Stateful, r.ShortestPath, r.LongestPath,
			r.CompComm, r.StatefulWorkPct)
	}
	return tw.Flush()
}

// PrintMainComparison renders E2 (Task, Task+Data, Task+Data+SWP).
func PrintMainComparison(w io.Writer) error {
	strats := []partition.Strategy{partition.StratTask, partition.StratCoarseData, partition.StratCombined}
	return printSpeedups(w, "Figure main_comp: speedup over single core (16 tiles)", strats)
}

// PrintFineGrained renders E3 (fine-grained data parallelism).
func PrintFineGrained(w io.Writer) error {
	strats := []partition.Strategy{partition.StratFineData, partition.StratCoarseData}
	return printSpeedups(w, "Figure fine-dup: fine-grained vs coarse-grained data parallelism", strats)
}

// PrintSoftPipe renders E4 (Task and Task+SWP).
func PrintSoftPipe(w io.Writer) error {
	strats := []partition.Strategy{partition.StratTask, partition.StratSWP}
	return printSpeedups(w, "Figure softpipe: task and task+software-pipeline speedups", strats)
}

func printSpeedups(w io.Writer, title string, strats []partition.Strategy) error {
	rows, means, err := Speedups(strats...)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	header := "Benchmark"
	for _, s := range strats {
		header += "\t" + string(s)
	}
	fmt.Fprintln(tw, header)
	for _, r := range rows {
		line := r.Name
		for _, s := range strats {
			line += fmt.Sprintf("\t%.2fx", r.Values[s])
		}
		fmt.Fprintln(tw, line)
	}
	line := "geometric mean"
	for _, s := range strats {
		line += fmt.Sprintf("\t%.2fx", means[s])
	}
	fmt.Fprintln(tw, line)
	return tw.Flush()
}

// PrintThroughput renders E5.
func PrintThroughput(w io.Writer) error {
	rows, err := Throughput()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure thruput: combined technique utilization and MFLOPS (peak 7200)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Benchmark\tUtilization\tMFLOPS")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.0f%%\t%.0f\n", r.Name, 100*r.Utilization, r.MFLOPS)
	}
	return tw.Flush()
}

// PrintVsSpace renders E6.
func PrintVsSpace(w io.Writer) error {
	rows, mean, err := VsSpace()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure vs-space: normalized to space multiplexing (prior work); >1 = faster")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Benchmark\tTask+Data vs space\tTask+Data+SWP vs space\t(space vs 1 core)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.2fx\t%.2fx\t%.2fx\n", r.Name, r.TaskData, r.Combined, r.SpaceSpeedup)
	}
	fmt.Fprintf(tw, "geometric mean\t\t%.2fx\t\n", mean)
	return tw.Flush()
}

// PrintLinear renders E7.
func PrintLinear(w io.Writer) error {
	rows, mean, err := LinearBench()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table linear: measured speedup from linear optimization (bytecode VM backend)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Benchmark\tLinear filters\tCombined away\tOptimised")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.2fx\n", r.Name, r.LinearFilters, r.Combined, r.Speedup)
	}
	fmt.Fprintf(tw, "geometric mean\t\t\t%.2fx\n", mean)
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "average improvement: %.0f%% (paper: ~400%%)\n", (mean-1)*100)
	return nil
}

// PrintTeleport renders E8.
func PrintTeleport(w io.Writer) error {
	res, err := TeleportBench()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table teleport: frequency-hopping radio, teleport messaging vs manual embedding")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Variant\tAudio samples/sec")
	fmt.Fprintf(tw, "manual embedding\t%.0f\n", res.ManualRate)
	fmt.Fprintf(tw, "teleport messaging\t%.0f\n", res.TeleportRate)
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "improvement: %.0f%% (paper: 49%%)\n", res.Improvement)
	return nil
}

// PrintAll renders every table in experiment order.
func PrintAll(w io.Writer) error {
	printers := []func(io.Writer) error{
		PrintBenchChar, PrintMainComparison, PrintFineGrained, PrintSoftPipe,
		PrintThroughput, PrintVsSpace, PrintLinear, PrintTeleport,
		PrintScaling, PrintCommAblation,
	}
	for i, p := range printers {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := p(w); err != nil {
			return err
		}
	}
	return nil
}
