package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"streamit/internal/core"
	"streamit/internal/exec"
	"streamit/internal/obs"
	"streamit/internal/partition"
)

// variant is a departure from a workload's own engine configuration; the
// traced pass measures differentials by changing one field at a time. The
// zero value is the workload as defined.
type variant struct {
	sequential bool               // run on the sequential engine instead
	interp     bool               // tree-walking interpreter instead of the VM
	profile    bool               // engine profiler on
	trace      bool               // engine trace recorder on
	strategy   partition.Strategy // mapped: replaces the workload's strategy
	noCkpt     bool               // mapped: CheckpointEvery 0
	// samples adds set-up, checkpoint write and checkpoint restore samples
	// after every repetition (not a change to the engine; the repetitions are
	// timed without them).
	samples bool
}

func (w *compiledWorkload) runOptions(v variant) core.RunOptions {
	o := core.RunOptions{Profile: v.profile, Log: func(string, ...any) {}}
	if v.interp {
		o.Backend = exec.BackendInterp
	}
	if v.trace {
		o.TracePath = "on" // any non-empty path attaches a recorder; nothing is written
	}
	if w.mapped && !v.sequential {
		o.Workers = workers
		o.MapStrategy = w.strategy
		if v.strategy != "" {
			o.MapStrategy = v.strategy
		}
		if !v.noCkpt {
			o.CheckpointEvery = w.ckptEvery
		}
	}
	return o
}

// mappedEngine builds the mapped engine the way a user does, through
// core.Runner, and refuses the sequential fallback core takes for programs
// a lockstep plan cannot host: the workload would silently measure another
// engine.
func (w *compiledWorkload) mappedEngine(c *core.Compiled, v variant) (*exec.MappedEngine, error) {
	r, err := c.Runner(core.EngineMapped, w.runOptions(v))
	if err != nil {
		return nil, err
	}
	me, ok := r.(*exec.MappedEngine)
	if !ok {
		return nil, fmt.Errorf("core fell back to %T for %s", r, c.Program.Name)
	}
	return me, nil
}

// sut is one program set up and resident: the system under test.
type sut struct {
	app   appWork
	iters int // steady iterations per repetition at this scale
	c     *core.Compiled
	seq   *exec.Engine
	me    *exec.MappedEngine
	// itemsPerIter counts sink items per steady iteration of the graph
	// actually executed.
	itemsPerIter int64
	inited       bool

	// Times are in seconds at the reference box's speed (reference.go);
	// raw keeps the repetitions as the clock read them.
	setup []float64 // one per set-up
	warm  float64   // the discarded repetition, raw
	reps  []float64 // one per timed repetition
	raw   []float64

	// Checkpoint samples ride along the repetitions (see bench.sample):
	// image is the last one written, spare the engine restores go into.
	spare         *sut
	image         bytes.Buffer
	write, reload []float64
}

// setupOnce takes the program from text or builder to a runnable engine.
func (w *compiledWorkload) setupOnce(src *sources, a appWork, v variant) (*sut, error) {
	c, err := src.compileProgram(a.name)
	if err != nil {
		return nil, err
	}
	s := &sut{app: a, c: c}
	if w.mapped && !v.sequential {
		if s.me, err = w.mappedEngine(c, v); err != nil {
			return nil, err
		}
		s.itemsPerIter = sinkItems(s.me.G, s.me.Sch)
	} else {
		if s.seq, err = c.EngineOpts(w.runOptions(v)); err != nil {
			return nil, err
		}
		s.itemsPerIter = sinkItems(c.Graph, c.Schedule)
	}
	if s.itemsPerIter <= 0 {
		return nil, fmt.Errorf("%s delivers no sink items", a.name)
	}
	return s, nil
}

func (s *sut) runner() core.Runner {
	if s.me != nil {
		return s.me
	}
	return s.seq
}

// run executes n steady iterations. The sequential engine keeps streaming
// from where it is (its init schedule runs once); the mapped engine's Run
// restarts the stream, init included, on every call — both are what a
// caller of the public API gets.
func (s *sut) run(n int) error {
	if s.me != nil {
		return s.me.Run(n)
	}
	if !s.inited {
		if err := s.seq.RunInit(); err != nil {
			return err
		}
		s.inited = true
	}
	return s.seq.RunSteady(n)
}

func (s *sut) writeCheckpoint(w io.Writer) error {
	if s.me != nil {
		return s.me.WriteCheckpoint(w, int64(s.iters))
	}
	return s.seq.WriteCheckpoint(w, int64(s.iters))
}

func (s *sut) restoreCheckpoint(img []byte) error {
	var err error
	if s.me != nil {
		_, err = s.me.RestoreCheckpoint(img)
	} else {
		_, err = s.seq.RestoreCheckpoint(img)
	}
	return err
}

// rate is the app's throughput summary in sink items per second.
func (s *sut) rate() summary {
	items := float64(int64(s.iters) * s.itemsPerIter)
	sm := summarize(s.reps)
	if sm.N == 0 {
		return sm
	}
	// A shorter repetition is a higher rate: min and max swap.
	return summary{Median: items / sm.Median, Min: items / sm.Max, Max: items / sm.Min, N: sm.N}
}

// bench carries what every workload needs.
type bench struct {
	cfg    config
	src    *sources
	golden *goldenFile
	res    *result
	tr     *tracer // nil unless the harness's spans are on
	rng    *rand.Rand
	host   *host // the reference kernel every timing is bracketed by

	// The dist layer: the most generations any run installed and the
	// recoveries of all runs (one and none unless something failed).
	generations, recoveries int
}

// measure sets every app of w up under variant v, warms each engine with
// one discarded repetition, then times fixed-work repetitions in rounds:
// every round runs each app once, in a seeded order, each repetition between
// two readings of the reference kernel. Rounds go on until budget is spent
// and at least minRounds are done. Everything stays resident and is
// returned.
func (b *bench) measure(w *compiledWorkload, v variant, budget time.Duration, minRounds int, tr *tracer) []*sut {
	var suts []*sut
	for _, a := range w.apps {
		s, ok := b.setup(w, a, v, tr)
		if !ok {
			continue
		}
		s.iters = max(a.iters/b.cfg.scale.iterDiv, 2)
		if v.samples {
			if s.spare, ok = b.setup(w, a, v, tr); !ok {
				continue
			}
			s.setup = append(s.setup, s.spare.setup...)
		}
		if !v.profile && !v.trace && (s.runner().Profile() != nil || s.runner().TraceRecorder() != nil) {
			b.res.op("instrumentation "+a.name, fmt.Errorf("profiler or recorder attached to a timed engine"))
		}
		runtime.GC()
		t0 := time.Now()
		if !b.res.op("warm-up "+a.name, s.run(s.iters)) {
			continue
		}
		s.warm = time.Since(t0).Seconds()
		suts = append(suts, s)
	}

	runtime.GC()
	start := time.Now()
	for round := 0; round < minRounds || time.Since(start) < budget; round++ {
		for _, i := range b.rng.Perm(len(suts)) {
			s := suts[i]
			lane := tr.lane("rep " + s.app.name)
			var d time.Duration
			var err error
			k := b.host.bracket(func() {
				d, err = tr.timed(lane, "exec", "Run", func() error { return s.run(s.iters) })
			})
			if b.res.op("rep "+s.app.name, err) {
				s.reps, s.raw = append(s.reps, d.Seconds()*k), append(s.raw, d.Seconds())
			}
		}
		if v.samples {
			for _, s := range suts {
				b.sample(w, v, s, tr)
			}
			// What the set-ups left behind is collected here, not during
			// the next round's repetitions.
			runtime.GC()
		}
	}
	return suts
}

// setup is one timed set-up of a: program text or builder to a runnable
// engine.
func (b *bench) setup(w *compiledWorkload, a appWork, v variant, tr *tracer) (s *sut, ok bool) {
	k := b.host.bracket(func() { s, ok = b.setupRaw(w, a, v, tr) })
	if ok {
		s.setup[0] *= k
	}
	return s, ok
}

// setupRaw is setup as the clock reads it, for callers that bracket it
// together with other operations.
func (b *bench) setupRaw(w *compiledWorkload, a appWork, v variant, tr *tracer) (*sut, bool) {
	var s *sut
	d, err := tr.timed(tr.lane("setup "+a.name), "harness", "setup "+a.name, func() (err error) {
		s, err = w.setupOnce(b.src, a, v)
		return err
	})
	if !b.res.op("setup "+a.name, err) {
		return nil, false
	}
	s.setup = []float64{d.Seconds()}
	return s, true
}

// sample takes one more set-up of s's program, one checkpoint write of the
// quiesced engine and one restore of that image into the spare engine, all
// between one pair of readings. These are micro- to milliseconds long and
// follow every round, so they are spread over the whole run.
func (b *bench) sample(w *compiledWorkload, v variant, s *sut, tr *tracer) {
	lane := tr.lane("samples " + s.app.name)
	var setup, write, reload float64
	k := b.host.bracket(func() {
		if again, ok := b.setupRaw(w, s.app, v, tr); ok {
			setup = again.setup[0]
		}
		s.image.Reset()
		d, err := tr.timed(lane, "exec", "WriteCheckpoint", func() error { return s.writeCheckpoint(&s.image) })
		if !b.res.op("checkpoint "+s.app.name, err) {
			return
		}
		write = d.Seconds()
		d, err = tr.timed(lane, "exec", "RestoreCheckpoint", func() error { return s.spare.restoreCheckpoint(s.image.Bytes()) })
		if b.res.op("restore "+s.app.name, err) {
			reload = d.Seconds()
		}
	})
	if setup > 0 {
		s.setup = append(s.setup, setup*k)
	}
	if write > 0 {
		s.write = append(s.write, write*k)
	}
	if reload > 0 {
		s.reload = append(s.reload, reload*k)
	}
}

// residentMB is the live heap after a collection, in megabytes.
func residentMB() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC() // the second collection frees what the first one's sweep left floating
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / 1e6
}

// checkpoints sums the apps' checkpoint write and restore times and image
// sizes.
func checkpoints(suts []*sut) (write, restore summary, size float64) {
	var ws, rs []summary
	for _, s := range suts {
		ws, rs = append(ws, summarize(s.write)), append(rs, summarize(s.reload))
		size += float64(s.image.Len())
	}
	return combine(ws, sum), combine(rs, sum), size
}

// verifyCompiled checks every program of w against the golden prefix, in
// the configuration w measures.
func (b *bench) verifyCompiled(w *compiledWorkload) {
	for _, a := range w.apps {
		check, err := b.golden.check(a.name, b.cfg.scale.name)
		if err == nil {
			if w.mapped {
				err = verifyMapped(w, a.name, check)
			} else {
				var c *core.Compiled
				var got map[string][]float64
				if c, err = b.src.compileProgram(a.name); err == nil {
					if got, err = runSequentialTapped(c, exec.BackendVM, check.Iters); err == nil {
						err = check.compare(got)
					}
				}
			}
		}
		b.res.verified(a.name, err)
	}
}

// runCompiled is the end-to-end pass of a compiled workload.
func (b *bench) runCompiled(w *compiledWorkload) {
	b.verifyCompiled(w)
	suts := b.measure(w, variant{samples: true}, b.cfg.budget(), b.cfg.scale.minReps, b.tr)
	b.reportEndToEnd(suts)
}

// reportEndToEnd turns resident, measured engines into the end-to-end
// metrics. setup_s and items_per_s are the issue's. The rest are this
// workload's off-path counterparts: a request is one repetition (the call
// the workload makes), a snapshot is WriteCheckpoint of the quiesced engine
// and a restore RestoreCheckpoint of that image into a second engine, and
// what is resident is the engines that ran.
func (b *bench) reportEndToEnd(suts []*sut) {
	var setups, rates, reqRates, p50s []summary
	var slow tail
	for _, s := range suts {
		setups = append(setups, summarize(s.setup))
		rates = append(rates, s.rate())
		reps := summarize(s.reps)
		if reps.N == 0 {
			continue
		}
		reqRates = append(reqRates, summary{Median: 1 / reps.Median, Min: 1 / reps.Max, Max: 1 / reps.Min, N: reps.N})
		p50s = append(p50s, reps.scaled(1000))
		slow.add(s.reps)
		row := b.res.row(s.app.name)
		row["setup_ms"] = median(s.setup) * 1000
		row["items_per_s"] = s.rate().Median
		row["rep_ms"] = reps.Median * 1000
		row["rep_ms_raw"] = median(s.raw) * 1000
		row["reps"] = float64(reps.N)
	}
	p50 := combine(p50s, geomean)
	b.res.set("setup_s", "s", combine(setups, sum))
	b.res.set("items_per_s", "1/s", combine(rates, geomean))
	b.res.set("req_per_s", "1/s", combine(reqRates, geomean))
	b.res.set("req_p50_ms", "ms", p50)
	b.res.set("req_p90_ms", "ms", p50.scaled(slow.at(0.9)))
	write, restore, _ := checkpoints(suts)
	b.res.set("snapshot_s", "s", write)
	b.res.set("restore_s", "s", restore)
	for _, s := range suts {
		s.spare = nil // resident means the engines that ran
	}
	b.res.setPoint("resident_mb", "MB", residentMB())
	runtime.KeepAlive(suts)
}

// profileShares reads a profiled mapped engine: the share of
// workers × wall seconds spent in work functions and blocked on tapes, and
// the deepest any output tape got.
func profileShares(p *obs.Profiler, wall float64) (busy, stall float64, hwm int64) {
	var work, blocked int64
	for _, f := range p.Snapshot() {
		work += f.WorkNS
		blocked += f.StallNS
		hwm = max(hwm, f.TapeHWM)
	}
	total := workers * wall * 1e9
	return float64(work) / total, float64(blocked) / total, hwm
}
