// Command streamit-run executes a StreamIt (.str) program on the
// sequential runtime and reports throughput.
//
// Usage:
//
//	streamit-run [-top Main] [-iters N] [-linear] [-backend vm|interp] [-strategy name] prog.str
//
// Work functions execute on the bytecode VM by default; -backend=interp
// forces the tree-walking interpreter (bit-identical output, useful for
// cross-checking and debugging).
//
// A program with dynamic-rate filters (`pop *`, `push *`, `peek *`) has no
// steady-state schedule; it runs on the dynamic engine, the sequential
// engine under a data-driven loop, and -iters counts sink items instead of
// iterations.
//
// With -repeat N, the sequential run repeats N times in one process. The
// compiled program is cached by source hash (the same cache the streaming
// server uses), so repeats skip parsing, scheduling, and VM compilation
// and only stamp fresh engines from the shared artifact bundle.
//
// With -strategy, the program is instead mapped onto the simulated 16-tile
// machine with the chosen strategy (sequential, task, task+data, task+swp,
// task+data+swp, space) and the simulated throughput is reported.
//
// With -map, the program runs on the host-mapped parallel engine: the
// graph is rewritten by fusion and executable fission with the chosen
// strategy (task, "fine-grained data", task+data, task+swp, task+data+swp;
// "swp" is shorthand for task+swp) and the partitions run one goroutine
// per worker core (-workers, default all cores). The +swp strategies add
// coarse-grained software pipelining: partitions are stage-skewed so
// producers of iteration i+1 overlap consumers of iteration i, with
// cross-stage traffic flushed in batches. Output is bit-identical to the
// sequential engine under every strategy; programs the lockstep concurrent
// engines cannot run (feedback loops, teleport messaging) run pipelined
// under a +swp strategy and otherwise fall back to the sequential engine
// with a note. -parallel takes the same fallback path.
//
// Robustness controls:
//
//	-faults "panic:Filter@100;rand:3@42"   inject deterministic faults
//	-faults "crash:worker1@200"            crash a mapped worker mid-run (also stall:workerN, slow:workerN)
//	-on-error "retry;Filter=skip"          per-filter recovery policies
//	-watchdog 2s                           stall-detection interval (-1s disables)
//	-checkpoint st.ckpt -checkpoint-after 500   stop at iteration 500, save state
//	-resume st.ckpt                        restore and finish the remaining iterations
//	-checkpoint-every 100                  with -map: coordinated checkpoint cadence (block-aligned)
//	-queue-depth 2                         with -map or -shards: batch slots per cross-worker edge ring
//
// -workers and -checkpoint-every are read by -map alone and -queue-depth
// by -map and -shards; given to any other engine, each is refused.
//
// Checkpoints are engine-state images taken at iteration boundaries; a
// resumed run is bit-identical to an uninterrupted one, on either backend.
// They work on the sequential engine and the host-mapped engine (-map) —
// the two share one image format over the same graph, so a mapped
// checkpoint even restores into a sequential run of the mapped graph. On
// -map, a worker crash (injected with crash:workerN@iter) rolls back to
// the last coordinated checkpoint, re-plans the partitions onto the
// surviving workers, and resumes — degradation shows in the supervision
// report. Coordinated checkpoints fall at block ends (blocks of up to 8
// iterations): -checkpoint-every N takes one at the first block end at
// least N iterations on; with N = 1, the default under worker faults, a
// crash (which cuts its block) rolls back to the iteration it hit.
//
// Distributed execution (-shards):
//
//	streamit-run -shards 3 [-per-shard 2] [-epoch 8] prog.str
//
// The process becomes the coordinator: it compiles the program, spawns N
// copies of itself as shard worker processes (each re-joining with
// -join), and drives them through coordinated epoch barriers over
// loopback TCP. Every shard compiles the program independently and must
// reproduce the coordinator's graph fingerprint, so the elaborated graph
// never crosses the wire. A shard process dying mid-run — kill -9
// included, or injected with -faults "crash:shardN@iter" (also
// stall:shardN, partition:shardN) — rolls the survivors back to the last
// barrier image, re-packs its partitions onto them, and the run finishes
// bit-identically. -coordinator sets the listen address; -join is the
// internal worker mode and can also point a manually started worker
// (even on another machine) at a coordinator.
//
// Observability (internal/obs):
//
//	-profile            print a per-filter table after the run: firings,
//	                    tape traffic, work and stall time, buffer high-water
//	                    marks (works on every engine)
//	-trace out.json     write a Chrome trace_event JSON of the run (load in
//	                    chrome://tracing or https://ui.perfetto.dev); with
//	                    -strategy, traces the simulated NoC execution
//	                    instead of the runtime engines
//	-cpuprofile cpu.prof write a pprof CPU profile of the run, not of
//	                    compilation (go tool pprof cpu.prof)
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"time"

	"streamit/internal/core"
	"streamit/internal/exec"
	"streamit/internal/faults"
	"streamit/internal/lang"
	"streamit/internal/linear"
	"streamit/internal/machine"
	"streamit/internal/obs"
	"streamit/internal/partition"
	"streamit/internal/wire"
)

// observed is the observability surface shared by all three engines.
type observed interface {
	Profile() *obs.Profiler
	TraceRecorder() *obs.Recorder
}

// finishObs emits the requested observability artifacts after a run: the
// per-filter profile table on stdout and/or the Chrome trace file.
func finishObs(e observed, tracePath string) {
	if p := e.Profile(); p != nil {
		fmt.Print("per-filter profile:\n")
		fmt.Print(p.Table())
	}
	if r := e.TraceRecorder(); r != nil && tracePath != "" {
		if err := r.WriteFile(tracePath); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s\n", tracePath)
	}
}

func main() {
	top := flag.String("top", "Main", "top-level stream to elaborate")
	iters := flag.Int("iters", 1000, "steady-state iterations to run (sink items for a program with dynamic-rate filters)")
	doLinear := flag.Bool("linear", false, "apply the linear optimizer first")
	strategy := flag.String("strategy", "", "map onto the simulated multicore with this strategy instead of running sequentially")
	parallel := flag.Bool("parallel", false, "run on the goroutine-per-filter plan of the mapped engine (one worker per node)")
	mapStrat := flag.String("map", "", "run on the host-mapped engine with this rewrite strategy: task, 'fine-grained data', task+data, task+swp (alias swp), or task+data+swp")
	workers := flag.Int("workers", 0, "worker cores for -map (0 = all cores)")
	traceOut := flag.String("trace", "", "write a Chrome trace JSON of the execution to this file (runtime engines or, with -strategy, the simulated machine)")
	profile := flag.Bool("profile", false, "print the per-filter profile table after the run")
	backendName := flag.String("backend", "vm", "work-function backend: vm (bytecode) or interp (tree-walking)")
	faultSpec := flag.String("faults", "", "inject faults: 'kind:filter@firing' (kind: panic, stall, corrupt), 'kind:workerN@iter' (kind: crash, stall, slow; -map only), or 'rand:N@seed', ';'-separated")
	onError := flag.String("on-error", "", "recovery policies: 'policy' or 'filter=policy' (fail, retry[:n[:backoff]], skip, restart), ','-separated")
	watchdog := flag.Duration("watchdog", 0, "no-progress window before the mapped engine aborts with a deadlock report (0 = default, negative = off)")
	ckptPath := flag.String("checkpoint", "", "write an engine checkpoint to this file (sequential and -map engines)")
	ckptAfter := flag.Int("checkpoint-after", 0, "with -checkpoint: stop and save after this many steady iterations")
	resumePath := flag.String("resume", "", "restore a checkpoint written by -checkpoint and run the remaining iterations (sequential and -map engines)")
	ckptEvery := flag.Int("checkpoint-every", 0, "with -map: take a coordinated checkpoint at the first block end at least N steady iterations on, so 1 = once per block of up to 8 (0 = only when worker faults are scheduled)")
	queueDepth := flag.Int("queue-depth", 0, "with -map or -shards: batch slots in each cross-worker edge's ring (0 = default)")
	repeat := flag.Int("repeat", 1, "run the whole program N times on the sequential engine; compilation is cached, so repeats only stamp fresh engines")
	shards := flag.Int("shards", 0, "run distributed: spawn N local shard worker processes and coordinate them over TCP")
	coordAddr := flag.String("coordinator", "", "with -shards: coordinator listen address (default 127.0.0.1: an ephemeral port)")
	joinAddr := flag.String("join", "", "run as a shard worker: join the coordinator at this address (no program argument; the job arrives over the wire)")
	perShard := flag.Int("per-shard", 0, "with -shards: engine workers per shard process (0 = default 2)")
	epoch := flag.Int("epoch", 0, "with -shards: steady iterations per coordinated barrier — the rollback granularity (0 = default 8)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run, not of compilation, to this file")
	flag.Parse()

	if *joinAddr != "" {
		runShard(*joinAddr)
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: streamit-run [flags] prog.str")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *shards > 0 {
		if *parallel || *strategy != "" || *repeat > 1 || *workers != 0 || *ckptEvery != 0 ||
			*ckptPath != "" || *resumePath != "" || *traceOut != "" || *profile || *cpuProfile != "" {
			fatal(fmt.Errorf("-shards runs the distributed engine; it composes with -map (strategy), -per-shard, -epoch, -queue-depth, and -faults only"))
		}
		runDistributed(*shards, *coordAddr, *perShard, *epoch, distFlags{
			top: *top, iters: *iters, strategy: *mapStrat, backend: *backendName,
			queueDepth: *queueDepth, faults: *faultSpec,
		})
		return
	}
	if *mapStrat == "" && (*workers != 0 || *ckptEvery != 0 || *queueDepth != 0) {
		fatal(fmt.Errorf("-workers, -checkpoint-every and -queue-depth configure the mapped engine; they need -map"))
	}
	if *cpuProfile != "" && *strategy != "" {
		fatal(fmt.Errorf("-cpuprofile profiles a run on this process's engines; -strategy simulates one"))
	}
	backend, err := core.ParseBackend(*backendName)
	if err != nil {
		fatal(err)
	}
	// The profile file is created before compiling, so that a bad path
	// fails fast; profiling starts with the run (runStart).
	var prof *os.File
	if *cpuProfile != "" {
		if prof, err = os.Create(*cpuProfile); err != nil {
			fatal(err)
		}
	}
	stopProfile := func() {}
	defer func() { stopProfile() }()
	runStart := func() time.Time {
		if prof != nil {
			if err := pprof.StartCPUProfile(prof); err != nil {
				fatal(err)
			}
			stopProfile = func() {
				pprof.StopCPUProfile()
				if err := prof.Close(); err != nil {
					fatal(err)
				}
			}
		}
		return time.Now()
	}
	runOpts := core.RunOptions{Backend: backend, Watchdog: *watchdog, Profile: *profile}
	if *traceOut != "" && *strategy == "" {
		runOpts.TracePath = *traceOut
	}
	if *faultSpec != "" {
		plan, err := faults.ParsePlan(*faultSpec)
		if err != nil {
			fatal(err)
		}
		runOpts.Faults = plan
	}
	if *onError != "" {
		pols, err := faults.ParsePolicies(*onError)
		if err != nil {
			fatal(err)
		}
		runOpts.OnError = pols
	}
	useCkpt := *ckptPath != "" || *resumePath != ""
	if useCkpt && (*parallel || *strategy != "") {
		fatal(fmt.Errorf("-checkpoint/-resume support the sequential and -map engines"))
	}
	if *ckptPath != "" && *ckptAfter <= 0 {
		fatal(fmt.Errorf("-checkpoint needs -checkpoint-after N (N > 0)"))
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	opts := core.Options{}
	if *doLinear {
		lo := linear.Options{Combine: true}
		opts.Linear = &lo
	}
	c, _, err := core.CachedCompileSource(string(src), *top, opts)
	if errors.Is(err, core.ErrDynamicRates) {
		if useCkpt || *parallel || *strategy != "" || *mapStrat != "" || *repeat > 1 || *doLinear {
			fatal(fmt.Errorf("%s has dynamic-rate filters: it runs on the dynamic engine, which takes no -checkpoint, -resume, -parallel, -strategy, -map, -repeat or -linear", flag.Arg(0)))
		}
		prog, err := lang.ParseAndElaborate(string(src), *top)
		if err != nil {
			fatal(err)
		}
		d, err := core.CompileDynamicOpts(prog, runOpts)
		if err != nil {
			fatal(err)
		}
		start := runStart()
		items, err := d.RunItems(int64(*iters))
		if err != nil {
			report(d.SupervisionReport(), len(d.Degraded()) > 0)
			fatal(err)
		}
		dur := time.Since(start)
		fmt.Printf("dynamic run: %d sink items in %v (%.0f items/sec)\n",
			items, dur.Round(time.Microsecond), float64(items)/dur.Seconds())
		report(d.SupervisionReport(), len(d.Degraded()) > 0)
		finishObs(d, runOpts.TracePath)
		return
	}
	if err != nil {
		fatal(err)
	}

	if *repeat > 1 {
		if useCkpt || *parallel || *strategy != "" || *mapStrat != "" {
			fatal(fmt.Errorf("-repeat supports the plain sequential engine only"))
		}
		start := runStart()
		for i := 0; i < *repeat; i++ {
			// Cache hit: same Compiled, same shared artifact bundle; only
			// the engine (tapes, filter state, VM frames) is rebuilt.
			cc, _, err := core.CachedCompileSource(string(src), *top, opts)
			if err != nil {
				fatal(err)
			}
			e, err := cc.EngineOpts(runOpts)
			if err != nil {
				fatal(err)
			}
			if err := e.Run(*iters); err != nil {
				fatal(err)
			}
		}
		dur := time.Since(start)
		entries, hits, misses := core.DefaultCache.Stats()
		fmt.Printf("ran %d × %d steady-state iterations in %v (%.0f runs/sec)\n",
			*repeat, *iters, dur.Round(time.Microsecond), float64(*repeat)/dur.Seconds())
		fmt.Printf("compile cache: %d entries, %d hits, %d misses\n", entries, hits, misses)
		return
	}

	if *strategy != "" {
		cfg := machine.DefaultConfig()
		var res *machine.Result
		var err error
		if *traceOut != "" {
			res, err = c.MapOntoTraced(partition.Strategy(*strategy), cfg, 24, *traceOut)
		} else {
			res, err = c.MapOnto(partition.Strategy(*strategy), cfg, 24)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("strategy %s on %d tiles:\n", *strategy, cfg.Tiles())
		fmt.Printf("  %.0f cycles/steady-iteration (%.0f iterations/sec at %v MHz)\n",
			res.CyclesPerIter, res.ItersPerSec, cfg.ClockMHz)
		fmt.Printf("  compute utilization %.0f%%, %.0f MFLOPS (peak %.0f)\n",
			100*res.Utilization, res.MFLOPS, cfg.PeakMFLOPS())
		return
	}

	if *parallel || *mapStrat != "" {
		kind := core.EngineParallel
		if *mapStrat != "" {
			kind = core.EngineMapped
			runOpts.MapStrategy = partition.Strategy(*mapStrat)
			if *mapStrat == "swp" { // common shorthand
				runOpts.MapStrategy = partition.StratSWP
			}
			runOpts.Workers = *workers
			runOpts.QueueDepth = *queueDepth
			runOpts.CheckpointEvery = *ckptEvery
		}
		r, err := c.Runner(kind, runOpts)
		if err != nil {
			fatal(err)
		}
		label := engineLabel(r, *mapStrat)
		start := runStart()
		switch {
		case *resumePath != "":
			img, err := os.ReadFile(*resumePath)
			if err != nil {
				fatal(err)
			}
			if err := asCheckpointer(r).RunFromCheckpoint(img, *iters); err != nil {
				report(r.SupervisionReport(), len(r.Degraded()) > 0)
				fatal(err)
			}
			fmt.Printf("resumed from %s and finished at iteration %d\n", *resumePath, *iters)
		case *ckptPath != "":
			if *ckptAfter > *iters {
				fatal(fmt.Errorf("-checkpoint-after %d exceeds -iters %d", *ckptAfter, *iters))
			}
			if err := r.Run(*ckptAfter); err != nil {
				report(r.SupervisionReport(), len(r.Degraded()) > 0)
				fatal(err)
			}
			if err := writeCheckpoint(asCheckpointer(r), *ckptPath, int64(*ckptAfter)); err != nil {
				fatal(err)
			}
			fmt.Printf("checkpoint written to %s at iteration %d (resume with -resume %s -iters %d)\n",
				*ckptPath, *ckptAfter, *ckptPath, *iters)
			report(r.SupervisionReport(), len(r.Degraded()) > 0)
			finishObs(r, runOpts.TracePath)
			return
		default:
			if err := r.Run(*iters); err != nil {
				report(r.SupervisionReport(), len(r.Degraded()) > 0)
				fatal(err)
			}
		}
		dur := time.Since(start)
		fmt.Printf("ran %d steady-state iterations on the %s backend in %v\n", *iters, label, dur.Round(time.Microsecond))
		fmt.Printf("%.0f iterations/sec\n", float64(*iters)/dur.Seconds())
		if me, ok := r.(*exec.MappedEngine); ok && engineLabel(r, *mapStrat) != label {
			fmt.Printf("re-planned after a crash: finished on %s\n", cutSummary(me))
		}
		report(r.SupervisionReport(), len(r.Degraded()) > 0)
		finishObs(r, runOpts.TracePath)
		return
	}
	e, err := c.EngineOpts(runOpts)
	if err != nil {
		fatal(err)
	}
	start := runStart()
	switch {
	case *resumePath != "":
		img, err := os.ReadFile(*resumePath)
		if err != nil {
			fatal(err)
		}
		if err := e.RunFromCheckpoint(img, *iters); err != nil {
			fatal(err)
		}
		fmt.Printf("resumed from %s and finished at iteration %d\n", *resumePath, *iters)
	case *ckptPath != "":
		if *ckptAfter > *iters {
			fatal(fmt.Errorf("-checkpoint-after %d exceeds -iters %d", *ckptAfter, *iters))
		}
		if err := e.RunInit(); err != nil {
			fatal(err)
		}
		if err := e.RunSteady(*ckptAfter); err != nil {
			fatal(err)
		}
		if err := writeCheckpoint(e, *ckptPath, int64(*ckptAfter)); err != nil {
			fatal(err)
		}
		fmt.Printf("checkpoint written to %s at iteration %d (resume with -resume %s -iters %d)\n",
			*ckptPath, *ckptAfter, *ckptPath, *iters)
		report(e.SupervisionReport(), len(e.Degraded()) > 0)
		finishObs(e, runOpts.TracePath)
		return
	default:
		if err := e.Run(*iters); err != nil {
			report(e.SupervisionReport(), len(e.Degraded()) > 0)
			fatal(err)
		}
	}
	dur := time.Since(start)
	fmt.Printf("ran %d steady-state iterations (%d firings) in %v\n", *iters, e.Firings, dur.Round(time.Microsecond))
	fmt.Printf("%.0f firings/sec\n", float64(e.Firings)/dur.Seconds())
	report(e.SupervisionReport(), len(e.Degraded()) > 0)
	finishObs(e, runOpts.TracePath)
}

// engineLabel names the engine c.Runner built, which is the sequential one
// when the program made core fall back, and for a mapped plan its cut.
// Taken before the run: crash recovery changes the cut, and the run reports
// the final one after it.
func engineLabel(r core.Runner, mapStrat string) string {
	me, ok := r.(*exec.MappedEngine)
	switch {
	case !ok:
		return "sequential"
	case mapStrat == "":
		return "parallel"
	}
	return fmt.Sprintf("mapped (%s, %s)", mapStrat, cutSummary(me))
}

// cutSummary reports the mapped engine's current placement: its worker
// count and how many edges cross between workers — the hops every
// iteration pays, each a staging copy, a link slot and a consumer copy.
func cutSummary(me *exec.MappedEngine) string {
	cross := 0
	for _, e := range me.G.Edges {
		if me.Assign[e.Src.ID] != me.Assign[e.Dst.ID] {
			cross++
		}
	}
	return fmt.Sprintf("%d workers, %d of %d edges cross", me.Workers, cross, len(me.G.Edges))
}

// checkpointer is the checkpoint surface the sequential and mapped
// engines share: one image format, interchangeable over the same graph.
type checkpointer interface {
	WriteCheckpoint(w io.Writer, iteration int64) error
	RunFromCheckpoint(data []byte, total int) error
}

// asCheckpointer narrows a Runner to its checkpoint surface. The mapped
// engine and the sequential engine (including the feedback/teleport
// fallback path) both implement it; the others are rejected before this.
func asCheckpointer(r core.Runner) checkpointer {
	ck, ok := r.(checkpointer)
	if !ok {
		fatal(fmt.Errorf("engine %T does not support checkpoints", r))
	}
	return ck
}

// writeCheckpoint saves the engine image: wire.WriteFile's temp file in
// the same directory, then rename, so a resume never reads a torn image.
func writeCheckpoint(e checkpointer, path string, iteration int64) error {
	var img bytes.Buffer
	if err := e.WriteCheckpoint(&img, iteration); err != nil {
		return err
	}
	return wire.WriteFile(path, img.Bytes())
}

// report prints the supervision summary when anything degraded the run.
func report(s string, degraded bool) {
	if degraded && s != "" {
		fmt.Print(s)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "streamit-run:", err)
	os.Exit(1)
}
