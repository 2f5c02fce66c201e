// Benchmarks regenerating every table and figure of the paper's evaluation
// (see EXPERIMENTS.md for the experiment index E1..E8). Each benchmark
// reports the figure's headline quantities as custom metrics; running
//
//	go test -bench=. -benchmem
//
// at the module root reproduces the evaluation end to end. The full tables
// are printed by cmd/streamit-bench.
package streamit_test

import (
	"fmt"
	"testing"

	"streamit/internal/bench"
	"streamit/internal/partition"
)

// BenchmarkFigBenchChar regenerates E1, the benchmark characteristics
// table (filters, peeking, state, paths, comp/comm, stateful work).
func BenchmarkFigBenchChar(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.BenchChar()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 12 {
			b.Fatalf("expected 12 benchmarks, got %d", len(rows))
		}
	}
}

func speedupBench(b *testing.B, strats ...partition.Strategy) {
	b.Helper()
	var means map[partition.Strategy]float64
	for i := 0; i < b.N; i++ {
		var err error
		_, means, err = bench.Speedups(strats...)
		if err != nil {
			b.Fatal(err)
		}
	}
	for s, m := range means {
		b.ReportMetric(m, "x-geomean-"+metricName(s))
	}
}

func metricName(s partition.Strategy) string {
	switch s {
	case partition.StratTask:
		return "task"
	case partition.StratFineData:
		return "finegrained"
	case partition.StratCoarseData:
		return "task+data"
	case partition.StratSWP:
		return "task+swp"
	case partition.StratCombined:
		return "task+data+swp"
	case partition.StratSpace:
		return "space"
	}
	return string(s)
}

// BenchmarkFigMainComp regenerates E2: Task, Task+Data, and
// Task+Data+SWP speedups over single core on 16 tiles (paper geomeans:
// 2.27x / 9.9x / ~14.4x).
func BenchmarkFigMainComp(b *testing.B) {
	speedupBench(b, partition.StratTask, partition.StratCoarseData, partition.StratCombined)
}

// BenchmarkFigFineGrained regenerates E3: fine-grained data parallelism
// versus the coarse-grained technique.
func BenchmarkFigFineGrained(b *testing.B) {
	speedupBench(b, partition.StratFineData, partition.StratCoarseData)
}

// BenchmarkFigSoftPipe regenerates E4: Task and Task+SWP (paper: SWP 7.7x
// over single core).
func BenchmarkFigSoftPipe(b *testing.B) {
	speedupBench(b, partition.StratTask, partition.StratSWP)
}

// BenchmarkFigThroughput regenerates E5: utilization and MFLOPS of the
// combined technique (peak 7200 MFLOPS).
func BenchmarkFigThroughput(b *testing.B) {
	var rows []bench.ThruputRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.Throughput()
		if err != nil {
			b.Fatal(err)
		}
	}
	var minU, maxM float64 = 1, 0
	for _, r := range rows {
		if r.Utilization < minU {
			minU = r.Utilization
		}
		if r.MFLOPS > maxM {
			maxM = r.MFLOPS
		}
	}
	b.ReportMetric(100*minU, "%min-utilization")
	b.ReportMetric(maxM, "MFLOPS-max")
}

// BenchmarkFigVsSpace regenerates E6: the combined technique normalized to
// the prior work's space multiplexing.
func BenchmarkFigVsSpace(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		var err error
		_, mean, err = bench.VsSpace()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(mean, "x-geomean-vs-space")
}

// BenchmarkTableLinear regenerates E7: measured speedup from linear
// combination and frequency translation on the sequential engine's default
// (VM) backend (paper: ~400% average).
func BenchmarkTableLinear(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		var err error
		_, mean, err = bench.LinearBench()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(mean, "x-geomean-linear")
	b.ReportMetric((mean-1)*100, "%improvement")
}

// BenchmarkTableTeleport regenerates E8: the frequency-hopping radio with
// teleport messaging versus manual embedding (paper: 49%).
func BenchmarkTableTeleport(b *testing.B) {
	var res *bench.TeleportResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = bench.TeleportBench()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Improvement, "%improvement")
}

// BenchmarkAblationScaling regenerates A1: geomean speedups at several
// machine sizes.
func BenchmarkAblationScaling(b *testing.B) {
	var rows []bench.ScalingRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.Scaling([]int{4, 16, 32})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Combined, fmt.Sprintf("x-combined-%dtiles", r.Tiles))
	}
}

// BenchmarkAblationFreqBlocks regenerates A3: frequency-translation
// speedup vs overlap-save block size for a 512-tap FIR.
func BenchmarkAblationFreqBlocks(b *testing.B) {
	var rows []bench.BlockRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.FreqBlockAblation()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Speedup, fmt.Sprintf("x-block%d", r.Block))
	}
}
