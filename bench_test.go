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
	"os"
	"runtime"
	"strconv"
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

// BenchmarkTableLinear regenerates E7: measured interpreter speedup from
// linear combination and frequency translation (paper: ~400% average).
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

// BenchmarkVMSpeedup measures the bytecode-VM execution backend against
// the tree-walking interpreter on the linear suite's work functions
// (items/sec at the sinks; acceptance floor is a 1.5x geomean).
func BenchmarkVMSpeedup(b *testing.B) {
	var rows []bench.VMRow
	var mean float64
	for i := 0; i < b.N; i++ {
		var err error
		rows, mean, err = bench.VMBench()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Speedup, "x-"+r.Name)
	}
	b.ReportMetric(mean, "x-geomean-vm")
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

// BenchmarkMappedSpeedup measures the host-mapped engine (the coarsen+fiss
// plans run on real cores by exec.MappedEngine) against the same engine's
// goroutine-per-filter plan across the parallelization suite, in sink items
// per second. GOMAXPROCS is raised to at least 8 so the
// measurement exercises a real multi-worker mapping even on small hosts.
// With STREAMIT_BENCH_JSON=dir, streamit-bench/v1 snapshots land in dir
// (BENCH_<app>.json per app plus BENCH_mapped_suite.json).
func BenchmarkMappedSpeedup(b *testing.B) {
	workers := runtime.NumCPU()
	if workers < 8 {
		workers = 8
	}
	prevProcs := runtime.GOMAXPROCS(workers)
	defer runtime.GOMAXPROCS(prevProcs)
	prevDir := bench.JSONDir
	bench.JSONDir = os.Getenv("STREAMIT_BENCH_JSON")
	defer func() { bench.JSONDir = prevDir }()

	var rows []bench.MappedRow
	var mean float64
	for i := 0; i < b.N; i++ {
		var err error
		rows, mean, err = bench.MappedBench(workers)
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := bench.WriteMappedSnapshots(rows, mean, workers); err != nil {
		b.Fatal(err)
	}
	for _, r := range rows {
		b.ReportMetric(r.Speedup, "x-"+r.Name)
	}
	b.ReportMetric(mean, "x-geomean-mapped")
}

// BenchmarkMappedSWP measures coarse-grained software pipelining on real
// cores: every suite app under the lockstep task and task+data plans and
// under both pipelined strategies (task+swp, task+data+swp), on the
// host-mapped engine. The headline metric is the geomean ratio of the
// best pipelined strategy over the task+data plan. GOMAXPROCS is raised
// to at least 8 so the stage skew spans real workers. With
// STREAMIT_BENCH_JSON=dir, a streamit-bench/v1 snapshot lands in
// dir/BENCH_mapped_swp.json.
func BenchmarkMappedSWP(b *testing.B) {
	workers := runtime.NumCPU()
	if workers < 8 {
		workers = 8
	}
	prevProcs := runtime.GOMAXPROCS(workers)
	defer runtime.GOMAXPROCS(prevProcs)
	prevDir := bench.JSONDir
	bench.JSONDir = os.Getenv("STREAMIT_BENCH_JSON")
	defer func() { bench.JSONDir = prevDir }()

	var rows []bench.MappedRow
	var vsTaskdata, vsTask float64
	for i := 0; i < b.N; i++ {
		var err error
		rows, vsTaskdata, vsTask, err = bench.MappedSWPBench(workers)
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := bench.WriteSWPSnapshot(rows, workers); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(vsTaskdata, "x-swp-vs-taskdata")
	b.ReportMetric(vsTask, "x-swp-vs-task")
}

// BenchmarkMappedRecovery measures the fault-tolerance costs of the mapped
// engine: steady-state throughput with and without per-iteration
// coordinated checkpoints, the checkpoint image size, and the wall time of
// a run that crashes a worker mid-way and recovers onto the survivors.
// With STREAMIT_BENCH_JSON=dir, a streamit-bench/v1 snapshot lands in
// dir/BENCH_mapped_recovery.json.
func BenchmarkMappedRecovery(b *testing.B) {
	workers := runtime.NumCPU()
	if workers < 4 {
		workers = 4
	}
	prevProcs := runtime.GOMAXPROCS(workers)
	defer runtime.GOMAXPROCS(prevProcs)
	prevDir := bench.JSONDir
	bench.JSONDir = os.Getenv("STREAMIT_BENCH_JSON")
	defer func() { bench.JSONDir = prevDir }()

	var res *bench.RecoveryResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = bench.RecoveryBench(workers)
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := bench.WriteRecoverySnapshot(res); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.OverheadPct, "%ckpt-overhead")
	b.ReportMetric(float64(res.ImageBytes), "ckpt-bytes")
	b.ReportMetric(res.RecoveryMS, "ms-crash-recover")
}

// BenchmarkMappedElastic measures elastic runtime re-planning on the
// skewed synthetic pipeline: throughput under the mis-planned static
// assignment, under the elastic engine that re-packs from its live
// profile, and under the oracle assignment built with perfect per-firing
// measurements (acceptance: elastic within ~10% of oracle), plus the
// mid-run resize bit-identity check. With STREAMIT_BENCH_JSON=dir, a
// streamit-bench/v1 snapshot lands in dir/BENCH_mapped_elastic.json.
func BenchmarkMappedElastic(b *testing.B) {
	prevProcs := runtime.GOMAXPROCS(bench.ElasticWorkers + 1)
	defer runtime.GOMAXPROCS(prevProcs)
	prevDir := bench.JSONDir
	bench.JSONDir = os.Getenv("STREAMIT_BENCH_JSON")
	defer func() { bench.JSONDir = prevDir }()

	var res *bench.ElasticResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = bench.ElasticBench(bench.ElasticWorkers)
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := bench.WriteElasticSnapshot(res); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.ElasticRate, "items/s-elastic")
	b.ReportMetric(res.ConvergencePct, "%-vs-oracle")
	b.ReportMetric(float64(res.Replans), "replans")
}

// BenchmarkServeSoak measures the multi-tenant streaming server: 10k
// concurrent sessions (alternating the paper-suite Vocoder and FMRadio
// applications) resident in one process, multiplexed onto a worker pool
// sized to the host, reported as session density, aggregate iteration
// throughput, and per-iteration latency quantiles.
// STREAMIT_SERVE_BENCH_SESSIONS scales the fleet (CI smoke runs use a
// small one); with STREAMIT_BENCH_JSON=dir, a streamit-bench/v1 snapshot
// lands in dir/BENCH_serve.json.
func BenchmarkServeSoak(b *testing.B) {
	prevDir := bench.JSONDir
	bench.JSONDir = os.Getenv("STREAMIT_BENCH_JSON")
	defer func() { bench.JSONDir = prevDir }()

	sessions := bench.DefaultServeSessions
	if env := os.Getenv("STREAMIT_SERVE_BENCH_SESSIONS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n <= 0 {
			b.Fatalf("bad STREAMIT_SERVE_BENCH_SESSIONS %q", env)
		}
		sessions = n
	}
	var res *bench.ServeResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = bench.ServeBench(sessions, 16, runtime.GOMAXPROCS(0))
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := bench.WriteServeSnapshot(res); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.SessionsPerCore, "sessions/core")
	b.ReportMetric(res.ItersPerSec, "iters/s")
	b.ReportMetric(float64(res.P99NS), "ns-p99-iter")
}

// BenchmarkServeRecovery measures the streaming server's checkpointed
// restart: a resident fleet runs half its iterations, Server.Snapshot
// persists every session, the server is torn down, and a fresh server
// restores the fleet from disk and finishes the run. Reported as snapshot
// cost (ms, bytes/session) and restore throughput (sessions/s).
// STREAMIT_SERVE_BENCH_SESSIONS scales the fleet; with
// STREAMIT_BENCH_JSON=dir, a streamit-bench/v1 snapshot lands in
// dir/BENCH_serve_recovery.json.
func BenchmarkServeRecovery(b *testing.B) {
	prevDir := bench.JSONDir
	bench.JSONDir = os.Getenv("STREAMIT_BENCH_JSON")
	defer func() { bench.JSONDir = prevDir }()

	sessions := bench.DefaultServeSessions
	if env := os.Getenv("STREAMIT_SERVE_BENCH_SESSIONS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n <= 0 {
			b.Fatalf("bad STREAMIT_SERVE_BENCH_SESSIONS %q", env)
		}
		sessions = n
	}
	var res *bench.ServeRecoveryResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = bench.ServeRecoveryBench(sessions, 16, runtime.GOMAXPROCS(0))
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := bench.WriteServeRecoverySnapshot(res); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.SnapshotMS, "ms-snapshot")
	b.ReportMetric(res.BytesPerSession, "bytes/session")
	b.ReportMetric(res.RestoredPerSec, "sessions/s-restored")
}

// BenchmarkDist measures distributed mapped execution over loopback TCP:
// sharded vs single-process throughput of the same plan, the overhead of
// a coordinated barrier every iteration, and the wall time of a sharded
// run whose shard crashes mid-way and is recovered onto the survivors.
// With STREAMIT_BENCH_JSON=dir, a streamit-bench/v1 snapshot lands in
// dir/BENCH_dist.json.
func BenchmarkDist(b *testing.B) {
	prevDir := bench.JSONDir
	bench.JSONDir = os.Getenv("STREAMIT_BENCH_JSON")
	defer func() { bench.JSONDir = prevDir }()

	var res *bench.DistResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = bench.DistBench(2, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := bench.WriteDistSnapshot(res); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.ShardedRate, "iters/s-sharded")
	b.ReportMetric(res.BarrierPct, "%barrier-overhead")
	b.ReportMetric(res.RecoveryMS, "ms-crash-recover")
}
