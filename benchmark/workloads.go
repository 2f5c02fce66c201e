package main

import (
	"streamit/internal/apps"
	"streamit/internal/partition"
)

// metricDef is one row of the catalogue; BENCHMARK.json repeats it and the
// smoke test checks the two agree.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64 // end-to-end only
}

// endToEnd is what a user of the system sees. fail_ratio, the ninth, is
// failed ÷ attempted of the same run. The bounds are wider than the issue's
// (README.md, "Departures"). The driver reads one metric set from
// every workload, so a workload also reports the metrics the issue leaves it
// out of, derived from what it measures anyway (README.md, "Off-path").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"items_per_s", "1/s", "higher", 0.25},
	{"req_per_s", "1/s", "higher", 0.25},
	{"req_p50_ms", "ms", "lower", 0.25},
	{"req_p90_ms", "ms", "lower", 0.25},
	{"snapshot_s", "s", "lower", 0.25},
	{"restore_s", "s", "lower", 0.25},
	{"resident_mb", "MB", "lower", 0.15},
}

// perLayer is what the traced pass reports, named <module>.<metric>.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{Name: "lang.compile_ms", Unit: "ms", Better: "lower"},
		{Name: "ir.flatten_ms", Unit: "ms", Better: "lower"},
		{Name: "ir.nodes", Unit: "count", Better: "lower"},
		{Name: "sched.compute_ms", Unit: "ms", Better: "lower"},
		{Name: "sched.firings_per_iter", Unit: "count", Better: "lower"},
		{Name: "core.compile_ms", Unit: "ms", Better: "lower"},
		{Name: "core.cache_hit_us", Unit: "us", Better: "lower"},
		{Name: "partition.plan_ms", Unit: "ms", Better: "lower"},
		{Name: "partition.nodes_after", Unit: "count", Better: "lower"},
		{Name: "partition.replicas", Unit: "count", Better: "lower"},
		{Name: "partition.steady_scale_x", Unit: "x", Better: "lower"},
		{Name: "partition.est_imbalance", Unit: "x", Better: "lower"},
		{Name: "partition.fission_cost_x", Unit: "x", Better: "lower"},
		{Name: "vm.compile_ms", Unit: "ms", Better: "lower"},
		{Name: "vm.kernel_ns_per_item", Unit: "ns", Better: "lower"},
		{Name: "vm.speedup_x", Unit: "x", Better: "higher"},
		{Name: "vm.kernel_share", Unit: "ratio", Better: "lower"},
		{Name: "wfunc.kernel_ns_per_item", Unit: "ns", Better: "lower"},
		{Name: "exec.seq_ns_per_item", Unit: "ns", Better: "lower"},
		{Name: "exec.seq_overhead_ns_per_item", Unit: "ns", Better: "lower"},
		{Name: "exec.engine_build_ms", Unit: "ms", Better: "lower"},
		{Name: "exec.mapped_work_x", Unit: "x", Better: "lower"},
		{Name: "exec.mapped_vs_seq_x", Unit: "x", Better: "higher"},
		{Name: "exec.parallel_eff", Unit: "ratio", Better: "higher"},
		{Name: "exec.busy_share", Unit: "ratio", Better: "higher"},
		{Name: "exec.stall_share", Unit: "ratio", Better: "lower"},
		{Name: "exec.queue_hwm_items", Unit: "count", Better: "lower"},
		{Name: "exec.ckpt_bytes", Unit: "bytes", Better: "lower"},
		{Name: "exec.ckpt_write_us", Unit: "us", Better: "lower"},
		{Name: "exec.ckpt_restore_us", Unit: "us", Better: "lower"},
		{Name: "exec.ckpt_cost_us_per_iter", Unit: "us", Better: "lower"},
		{Name: "exec.ckpt_overhead_x", Unit: "x", Better: "lower"},
		{Name: "obs.profile_overhead_pct", Unit: "%", Better: "lower"},
		{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower"},
		{Name: "obs.mapped_profile_overhead_pct", Unit: "%", Better: "lower"},
		{Name: "obs.harness_trace_overhead_pct", Unit: "%", Better: "lower"},
		{Name: "serve.session_create_us", Unit: "us", Better: "lower"},
		{Name: "serve.session_heap_kb", Unit: "KB", Better: "lower"},
		{Name: "serve.feed_us", Unit: "us", Better: "lower"},
		{Name: "serve.run_call_us", Unit: "us", Better: "lower"},
		{Name: "serve.wait_us", Unit: "us", Better: "lower"},
		{Name: "serve.drain_us", Unit: "us", Better: "lower"},
		{Name: "serve.engine_share", Unit: "ratio", Better: "higher"},
		{Name: "serve.iter_p50_us", Unit: "us", Better: "lower"},
		{Name: "serve.iter_p99_us", Unit: "us", Better: "lower"},
		{Name: "serve.pool_steals_per_kreq", Unit: "count", Better: "lower"},
		{Name: "serve.pool_parks_per_kreq", Unit: "count", Better: "lower"},
		{Name: "serve.req_p95_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.req_p99_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.req_p999_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.req_max_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.http_status_us", Unit: "us", Better: "lower"},
		{Name: "serve.http_feed_us", Unit: "us", Better: "lower"},
		{Name: "serve.http_drain_us", Unit: "us", Better: "lower"},
		{Name: "serve.snapshot_bytes_per_session", Unit: "bytes", Better: "lower"},
		{Name: "serve.snapshot_us_per_session", Unit: "us", Better: "lower"},
		{Name: "serve.snapshot_disk_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.restore_us_per_session", Unit: "us", Better: "lower"},
		{Name: "dist.join_ms", Unit: "ms", Better: "lower"},
		{Name: "dist.items_per_s", Unit: "1/s", Better: "higher"},
		{Name: "dist.single_process_items_per_s", Unit: "1/s", Better: "higher"},
		{Name: "dist.overhead_pct", Unit: "%", Better: "lower"},
		{Name: "dist.epoch_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "dist.epoch_ms_p95", Unit: "ms", Better: "lower"},
		{Name: "dist.barrier_cost_us", Unit: "us", Better: "lower"},
		{Name: "dist.image_bytes", Unit: "bytes", Better: "lower"},
		{Name: "dist.generations", Unit: "count", Better: "lower"},
		{Name: "dist.recoveries", Unit: "count", Better: "lower"},
	}
	for _, a := range seqSuite.apps {
		defs = append(defs, metricDef{Name: "exec.seq_items_per_s." + a.name, Unit: "1/s", Better: "higher"})
	}
	for _, a := range apps.Suite() {
		defs = append(defs, metricDef{Name: "exec.mapped_items_per_s." + a.Name, Unit: "1/s", Better: "higher"})
	}
	return defs
}

// reqIters is the size of one serve request: 16 steady iterations.
const reqIters = 16

// appWork is one program of a workload with the steady iterations one
// repetition runs. The counts are fixed here — the same on every commit —
// and were calibrated once so that a repetition takes about 25 ms on the
// sequential engine and 50 ms on the mapped one (whose Run starts the stream
// over, init schedule and worker start included, on every call) on the
// reference box: short against the stretches in which the host changes
// speed, so that the reference readings around a repetition describe it.
type appWork struct {
	name  string
	iters int
}

// compiledWorkload describes one of the four workloads that run compiled
// programs on an in-process engine.
type compiledWorkload struct {
	name      string
	mapped    bool               // false: sequential exec.Engine
	strategy  partition.Strategy // mapped only
	ckptEvery int                // mapped only
	apps      []appWork
}

// seqSuite runs the 12 suite programs plus the four .str examples (names
// ending in .str are files under examples/strprogs, compiled through the
// language front end) on the sequential engine.
var seqSuite = &compiledWorkload{
	name: "seq-suite",
	apps: []appWork{
		{"BitonicSort", 1200}, {"ChannelVocoder", 1000}, {"DCT", 120}, {"DES", 100},
		{"FFT", 450}, {"FilterBank", 150}, {"FMRadio", 830}, {"Serpent", 48},
		{"TDE", 60}, {"MPEG2Decoder", 170}, {"Vocoder", 700}, {"Radar", 210},
		{"bitonic.str", 3600}, {"filterbank.str", 1750}, {"fmradio.str", 2600}, {"freqhop.str", 58000},
	},
}

var mappedFission = &compiledWorkload{
	name: "mapped-fission", mapped: true, strategy: partition.StratCoarseData,
	apps: []appWork{{"FMRadio", 55}, {"FilterBank", 52}, {"ChannelVocoder", 270}, {"Serpent", 11}},
}

var mappedSWP = &compiledWorkload{
	name: "mapped-swp", mapped: true, strategy: partition.StratSWP,
	apps: []appWork{
		{"BitonicSort", 2000}, {"ChannelVocoder", 2000}, {"DCT", 370}, {"DES", 270},
		{"FFT", 780}, {"FilterBank", 480}, {"FMRadio", 1800}, {"Serpent", 130},
		{"TDE", 200}, {"MPEG2Decoder", 400}, {"Vocoder", 1600}, {"Radar", 730},
	},
}

var mappedCkpt = &compiledWorkload{
	name: "mapped-ckpt", mapped: true, strategy: partition.StratTask, ckptEvery: 1,
	apps: []appWork{{"FMRadio", 230}, {"DES", 65}, {"Vocoder", 200}},
}

// distApps are the programs the traced pass of mapped-ckpt also runs on two
// shards; iters is one whole cluster run, in epochs of distEpoch iterations.
var distApps = []appWork{{"FMRadio", 592}, {"DES", 88}}

const distEpoch = 8

// serveApps are the programs of serve-fleet with the source filter each
// session is fed at.
var serveApps = []struct{ name, source string }{{"FMRadio", "antenna"}, {"Vocoder", "voice"}}

// workloadNames lists the five workloads in the order "-workload all" runs
// them and BENCHMARK.json names them.
var workloadNames = []string{"seq-suite", "mapped-fission", "mapped-swp", "mapped-ckpt", "serve-fleet"}

// scale sizes a run. full is the benchmark; tiny is the smoke test's: the
// same code paths on a sliver of the work.
type scale struct {
	name        string
	timed       bool // false: loops run their minimum counts, whatever -seconds says
	iterDiv     int  // repetition iterations are divided by this
	minReps     int  // timed rounds (every program once) or serve windows, at least
	traceReps   int  // traced pass: rounds per configuration
	fleets      int  // serve: whole-fleet set-ups
	sessions    int  // serve fleet size
	snapshots   int  // serve snapshot + restore rounds
	httpTrips   int  // HTTP round trips per endpoint
	batchUS     int  // standalone kernels are timed in batches at least this long
	windowReqs  int  // serve: requests per client in one window
	warmWindows int  // serve: windows discarded before the timed ones
}

var scales = map[string]scale{
	"full": {name: "full", timed: true, iterDiv: 1, minReps: 4, traceReps: 5, fleets: 7, sessions: 2000,
		snapshots: 7, httpTrips: 500, batchUS: 100, windowReqs: 200, warmWindows: 5},
	"tiny": {name: "tiny", iterDiv: 100, minReps: 1, traceReps: 1, fleets: 1, sessions: 2,
		snapshots: 1, httpTrips: 3, batchUS: 2, windowReqs: 8, warmWindows: 0},
}
