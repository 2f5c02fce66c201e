package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"streamit/internal/dist"
	"streamit/internal/exec"
	"streamit/internal/ir"
	"streamit/internal/partition"
	"streamit/internal/sched"
)

// The dist layer: a coordinator and two in-process shards of one worker
// each, over loopback TCP, under the task strategy (no graph rewrite, so
// what is measured is links and barriers). A distributed run is one-shot —
// shards join, the run commits its epochs, everyone leaves — so a
// repetition here is a whole cluster, and set-up is measured inside it.
// It is measured in the traced pass of mapped-ckpt, which runs the same
// programs under the same plan in one process, and is not a workload of its
// own: what a cluster's wall time repeats to on a shared box is how fast
// the host wakes an idle processor for every message, not the program
// (README.md, "Departures").

const distShards = workers // × 1 worker per shard

// clusterSpec says what one distributed run does.
type clusterSpec struct {
	app          string
	iters, epoch int
	tap          bool
}

// clusterRun is one completed distributed run with its barrier timeline.
type clusterRun struct {
	res      *dist.Result
	start    time.Time   // before NewCoordinator
	barriers []time.Time // one per committed epoch
	g        *ir.Graph   // the graph the shards executed
	s        *sched.Schedule
}

// runCluster brings a cluster up, runs spec.iters iterations in epochs, and
// tears it down.
func (b *bench) runCluster(tr *tracer, spec clusterSpec) (*clusterRun, error) {
	cr := &clusterRun{start: time.Now()}
	lane := tr.lane("cluster " + spec.app)
	defer tr.span(lane, "harness", "cluster "+spec.app)()
	quiet := func(string, ...any) {}
	var last time.Duration // where the epoch being run started, on the tracer's clock
	cfg := dist.Config{
		Shards: distShards, PerShard: 1, Strategy: partition.StratTask, Epoch: spec.epoch,
		TapSinks: spec.tap, Log: quiet,
		OnBarrier: func(int64) {
			cr.barriers = append(cr.barriers, time.Now())
			last = tr.sliceSince(lane, "dist", "epoch", last)
		},
	}
	var co *dist.Coordinator
	var addr string
	_, err := tr.timed(lane, "dist", "NewCoordinator+Listen", func() (err error) {
		if co, err = dist.NewCoordinator(dist.Spec{App: spec.app}, cfg); err != nil {
			return err
		}
		addr, err = co.Listen("")
		return err
	})
	if err != nil {
		return nil, err
	}
	cr.g, cr.s = co.Graph()
	var wg sync.WaitGroup
	joinErrs := make([]error, distShards)
	for i := 0; i < distShards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// In-process shards: an injected crash must never exit the
			// benchmark, and none is scheduled here.
			joinErrs[i] = dist.Join(addr, dist.ShardOptions{Name: fmt.Sprintf("shard%d", i), CrashFn: func() {}, Log: quiet})
		}(i)
	}
	total := int64(spec.iters)
	_, err = tr.timed(lane, "dist", "Run", func() (err error) {
		last = tr.stampOrZero()
		cr.res, err = co.Run(spec.iters)
		return err
	})
	wg.Wait()
	if err != nil {
		return nil, err
	}
	b.generations = max(b.generations, cr.res.Generations)
	b.recoveries += cr.res.Recoveries
	for _, jerr := range joinErrs {
		if jerr != nil {
			return nil, fmt.Errorf("shard: %w", jerr)
		}
	}
	if cr.res.Recoveries != 0 || cr.res.Generations != 1 || cr.res.Iterations != total || len(cr.barriers) == 0 {
		return nil, fmt.Errorf("run committed %d of %d iterations in %d generations with %d recoveries",
			cr.res.Iterations, total, cr.res.Generations, cr.res.Recoveries)
	}
	return cr, nil
}

// stampOrZero and sliceSince let the barrier hook record one slice per
// epoch without branching on whether tracing is on.
func (t *tracer) stampOrZero() time.Duration {
	if t == nil {
		return 0
	}
	return t.rec.Stamp()
}

func (t *tracer) sliceSince(id int, layer, op string, since time.Duration) time.Duration {
	if t == nil {
		return 0
	}
	now := t.rec.Stamp()
	t.rec.Slice(id, op, layer, since, now)
	return now
}

// epochs are the intervals between consecutive barriers after the first
// eighth of the run (link set-up and cold caches), in seconds.
func (cr *clusterRun) epochs() []float64 {
	var out []float64
	for k := len(cr.barriers)/8 + 1; k < len(cr.barriers); k++ {
		out = append(out, cr.barriers[k].Sub(cr.barriers[k-1]).Seconds())
	}
	return out
}

// setupSeconds is the wall time from NewCoordinator until the cluster
// commits at steady pace: the first barrier, less one ordinary epoch.
func (cr *clusterRun) setupSeconds() float64 {
	d := cr.barriers[0].Sub(cr.start).Seconds()
	if ep := cr.epochs(); len(ep) > 0 {
		d -= median(ep)
	}
	return max(d, 0)
}

// distApp accumulates one program's repetitions, its times stated at the
// reference box's speed.
type distApp struct {
	app    appWork
	iters  int
	epoch  int
	items  int64     // sink items per iteration
	setup  []float64 // seconds, one per run
	walls  []float64 // seconds per iteration, steady part of each run
	epochs []float64 // the steady epochs of every run, in seconds
	slow   tail      // and each as a multiple of its run's median
	image  int       // bytes of the last run's final barrier image
}

func (a *distApp) record(cr *clusterRun, k float64) {
	a.setup = append(a.setup, cr.setupSeconds()*k)
	if ep := cr.epochs(); len(ep) > 0 {
		for _, e := range ep {
			a.epochs = append(a.epochs, e*k)
		}
		a.slow.add(ep)
		a.walls = append(a.walls, sum(ep)*k/float64(len(ep)*a.epoch))
	}
	a.image = len(cr.res.FinalImage)
	a.items = sinkItems(cr.g, cr.s)
}

func (a *distApp) rate() summary {
	sm := summarize(a.walls)
	if sm.N == 0 {
		return sm
	}
	it := float64(a.items)
	return summary{Median: it / sm.Median, Min: it / sm.Max, Max: it / sm.Min, N: sm.N}
}

// verifyDist runs the golden prefix on a cluster with tapped sinks and
// checks streams and final image.
func (b *bench) verifyDist(a appWork) {
	check, err := b.golden.check(a.name, b.cfg.scale.name)
	if err == nil {
		var cr *clusterRun
		cr, err = b.runCluster(b.tr, clusterSpec{app: a.name, iters: check.Iters, epoch: distEpoch, tap: true})
		if err == nil {
			err = check.compare(cr.res.Outputs)
		}
		if err == nil {
			err = sameAsSequential(cr, check.Iters)
		}
	}
	b.res.verified(a.name, err)
}

// sameAsSequential requires the run's final barrier image to be byte-equal
// to a sequential engine's checkpoint over the same graph.
func sameAsSequential(cr *clusterRun, iters int) error {
	seq, err := exec.NewFromGraphBackend(cr.g, cr.s, exec.BackendVM)
	if err != nil {
		return err
	}
	if err := seq.Run(iters); err != nil {
		return err
	}
	var want bytes.Buffer
	if err := seq.WriteCheckpoint(&want, int64(iters)); err != nil {
		return err
	}
	if !bytes.Equal(cr.res.FinalImage, want.Bytes()) {
		return fmt.Errorf("final image differs from the sequential engine's (%d vs %d bytes)", len(cr.res.FinalImage), want.Len())
	}
	return nil
}

// measureDist runs rounds whole-cluster repetitions of every app at the
// given epoch length, after one discarded run each: a round runs each app
// once, in a seeded order, each run between two readings of the reference
// kernel.
func (b *bench) measureDist(epoch, rounds int) []*distApp {
	var out []*distApp
	for _, a := range distApps {
		da := &distApp{app: a, epoch: epoch}
		da.iters = max(a.iters/b.cfg.scale.iterDiv/epoch, 4) * epoch
		_, err := b.runCluster(nil, clusterSpec{app: a.name, iters: da.iters, epoch: epoch})
		if b.res.op("warm-up "+a.name, err) {
			out = append(out, da)
		}
	}
	for round := 0; round < rounds; round++ {
		for _, i := range b.rng.Perm(len(out)) {
			a := out[i]
			runtime.GC()
			var cr *clusterRun
			var err error
			k := b.host.bracket(func() {
				cr, err = b.runCluster(b.tr, clusterSpec{app: a.app.name, iters: a.iters, epoch: epoch})
			})
			if b.res.op("cluster "+a.app.name, err) {
				a.record(cr, k)
			}
		}
	}
	return out
}

// distLayers verifies and measures the distributed runtime and reports its
// per-layer numbers.
func (b *bench) distLayers() {
	for _, a := range distApps {
		b.verifyDist(a)
	}
	runs := b.measureDist(distEpoch, b.cfg.scale.traceReps*2)
	r := b.res
	var joins, rates, p50s []summary
	var slow tail
	var imgBytes float64
	for _, a := range runs {
		joins = append(joins, summarize(a.setup).scaled(1000))
		rates = append(rates, a.rate())
		p50s = append(p50s, summarize(a.epochs).scaled(1000))
		slow.rel = append(slow.rel, a.slow.rel...)
		imgBytes += float64(a.image)
		row := r.row(a.app.name)
		row["dist_items_per_s"] = a.rate().Median
		row["dist_epoch_ms"] = median(a.epochs) * 1000
	}
	p50 := combine(p50s, geomean)
	distRate := combine(rates, geomean)
	r.set("dist.join_ms", "ms", combine(joins, sum))
	r.set("dist.items_per_s", "1/s", distRate)
	r.set("dist.epoch_ms_p50", "ms", p50)
	r.set("dist.epoch_ms_p95", "ms", p50.scaled(slow.at(0.95)))
	r.setPoint("dist.image_bytes", "bytes", imgBytes)

	// The same plan in one process: a mapped engine, task strategy, all
	// workers local, no wire.
	single := &compiledWorkload{name: "dist-single", mapped: true, strategy: partition.StratTask, apps: distApps}
	rates = nil
	for _, s := range b.measure(single, variant{}, 0, b.cfg.scale.traceReps, nil) {
		rates = append(rates, s.rate())
		r.row(s.app.name)["single_process_items_per_s"] = s.rate().Median
	}
	one := combine(rates, geomean)
	r.set("dist.single_process_items_per_s", "1/s", one)
	if one.Median > 0 {
		r.setPoint("dist.overhead_pct", "%", (one.Median-distRate.Median)/one.Median*100)
	}

	// A barrier every iteration against one every distEpoch: the extra
	// wall per iteration, per extra barrier.
	every := b.measureDist(1, b.cfg.scale.traceReps)
	var costs []float64
	for i, a := range every {
		if len(a.walls) == 0 || len(runs[i].walls) == 0 {
			continue
		}
		extra := 1 - 1.0/distEpoch // more barriers per iteration
		costs = append(costs, (median(a.walls)-median(runs[i].walls))/extra*1e6)
		r.row(a.app.name)["barrier_cost_us"] = costs[len(costs)-1]
	}
	r.setPoint("dist.barrier_cost_us", "us", geomean(costs))
	r.setPoint("dist.generations", "count", float64(b.generations))
	r.setPoint("dist.recoveries", "count", float64(b.recoveries))
}
