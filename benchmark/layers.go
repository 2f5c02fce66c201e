package main

import (
	"fmt"
	"runtime"
	"time"

	"streamit/internal/core"
	"streamit/internal/exec"
	"streamit/internal/ir"
	"streamit/internal/lang"
	"streamit/internal/partition"
	"streamit/internal/sched"
	"streamit/internal/vm"
	"streamit/internal/wfunc"
)

// The traced pass of the compiled workloads. Layer timings come from spans
// the harness puts around its own calls into each layer; rates per
// configuration come from the same measure loop the end-to-end pass uses,
// with one thing changed at a time, at the scale's traceReps repetitions per
// configuration (these numbers are not gated).

func (b *bench) traceCompiled(w *compiledWorkload) {
	b.verifyCompiled(w)
	b.setupLayers(w)

	// The configurations, in the order they are measured. Those with procs
	// set run on that many processors instead of the one every gated number
	// is measured on: they are what the parallel metrics — speedup over one
	// core, busy and stall shares — can be read from, and they repeat only
	// as well as the host lets two processors repeat.
	type pass struct {
		v     variant
		tr    *tracer
		procs int
		suts  []*sut
	}
	configs := map[string]*pass{}
	var order []*pass
	add := func(name string, v variant, tr *tracer, procs int) {
		configs[name] = &pass{v: v, tr: tr, procs: procs}
		order = append(order, configs[name])
	}
	add("base", variant{samples: w.mapped}, nil, 1)
	add("spans", variant{}, b.tr, 1)
	add("profile", variant{profile: true}, nil, 1)
	switch w {
	case seqSuite:
		add("trace", variant{trace: true}, nil, 1)
		add("interp", variant{interp: true}, nil, 1)
	case mappedFission:
		add("task", variant{strategy: partition.StratTask}, nil, 1)
	case mappedCkpt:
		add("nockpt", variant{noCkpt: true}, nil, 1)
	}
	if w.mapped {
		add("seq", variant{sequential: true}, nil, 1)
		add("parallel", variant{}, nil, workers)
		add("parallel profile", variant{profile: true}, nil, workers)
	}
	for _, c := range order {
		prev := runtime.GOMAXPROCS(c.procs)
		c.suts = b.measure(w, c.v, 0, b.cfg.scale.traceReps, c.tr)
		runtime.GOMAXPROCS(prev)
	}
	// ratio is the geometric mean over apps of rate(a) ÷ rate(b).
	ratio := func(a, b string) float64 {
		ca, cb := configs[a], configs[b]
		if ca == nil || cb == nil {
			return 0
		}
		var rs []float64
		for _, sa := range ca.suts {
			for _, sb := range cb.suts {
				if sa.app.name == sb.app.name && sb.rate().Median > 0 {
					rs = append(rs, sa.rate().Median/sb.rate().Median)
				}
			}
		}
		return geomean(rs)
	}
	overhead := func(on string) float64 { return (ratio("base", on) - 1) * 100 }

	r := b.res
	base := configs["base"].suts
	r.setPoint("obs.harness_trace_overhead_pct", "%", overhead("spans"))
	if w.mapped {
		for _, s := range base {
			r.set("exec.mapped_items_per_s."+s.app.name, "1/s", s.rate())
		}
		for _, s := range configs["seq"].suts {
			r.set("exec.seq_items_per_s."+s.app.name, "1/s", s.rate())
		}
		r.setPoint("exec.mapped_work_x", "x", ratio("seq", "base"))
		speedup := ratio("parallel", "seq")
		r.setPoint("exec.mapped_vs_seq_x", "x", speedup)
		r.setPoint("exec.parallel_eff", "ratio", speedup/workers)
		var busy, stall []float64
		var hwm int64
		for _, s := range configs["parallel profile"].suts {
			if p := s.me.Profile(); p != nil {
				bs, st, h := profileShares(p, s.warm+sum(s.raw))
				busy, stall, hwm = append(busy, bs), append(stall, st), max(hwm, h)
			}
		}
		r.set("exec.busy_share", "ratio", summarize(busy))
		r.set("exec.stall_share", "ratio", summarize(stall))
		r.setPoint("exec.queue_hwm_items", "count", float64(hwm))
	}
	switch w {
	case seqSuite:
		var nsPerItem []float64
		for _, s := range base {
			r.set("exec.seq_items_per_s."+s.app.name, "1/s", s.rate())
			nsPerItem = append(nsPerItem, 1e9/s.rate().Median)
		}
		r.set("exec.seq_ns_per_item", "ns", geoSummary(nsPerItem))
		r.setPoint("vm.speedup_x", "x", ratio("base", "interp"))
		r.setPoint("obs.profile_overhead_pct", "%", overhead("profile"))
		r.setPoint("obs.trace_overhead_pct", "%", overhead("trace"))
		b.kernelLayers(base)
		b.cacheHit()
	case mappedSWP:
		r.setPoint("obs.mapped_profile_overhead_pct", "%", overhead("profile"))
	case mappedFission:
		r.setPoint("partition.fission_cost_x", "x", ratio("task", "base"))
	case mappedCkpt:
		r.setPoint("exec.ckpt_overhead_x", "x", ratio("nockpt", "base"))
		var perIter []float64
		for i, s := range base {
			off := configs["nockpt"].suts
			if i < len(off) && len(s.reps) > 0 && len(off[i].reps) > 0 {
				d := median(s.reps)/float64(s.iters) - median(off[i].reps)/float64(off[i].iters)
				perIter = append(perIter, d*1e6)
				r.row(s.app.name)["ckpt_overhead_x"] = off[i].rate().Median / s.rate().Median
			}
		}
		r.setPoint("exec.ckpt_cost_us_per_iter", "us", geomean(perIter))
		b.distLayers()
	}
	if w.mapped {
		write, restore, bytes := checkpoints(base)
		r.set("exec.ckpt_write_us", "us", write.scaled(1e6))
		r.set("exec.ckpt_restore_us", "us", restore.scaled(1e6))
		r.setPoint("exec.ckpt_bytes", "bytes", bytes)
	}
}

// layerTimes collects, per metric, one median per app; the metric is
// their sum over the workload's apps.
type layerTimes map[string][]summary

func (lt layerTimes) add(metric string, samples []float64) {
	if len(samples) > 0 {
		lt[metric] = append(lt[metric], summarize(samples).scaled(1000))
	}
}

// setupLayers walks every app of w from text or builder to engine one
// layer call at a time, each inside a span, and reports the compile-side
// per-layer metrics.
func (b *bench) setupLayers(w *compiledWorkload) {
	lt := layerTimes{}
	var nodes, firings, nodesAfter, replicas float64
	var scales, imbalances []float64
	for _, a := range w.apps {
		t := map[string][]float64{}
		var last *planned
		for i := 0; i < b.cfg.scale.traceReps; i++ {
			once := map[string][]float64{}
			var p *planned
			var err error
			k := b.host.bracket(func() { p, err = b.setupByLayer(w, a, once) })
			if !b.res.op("layer setup "+a.name, err) {
				break
			}
			for metric, samples := range once {
				t[metric] = append(t[metric], samples[0]*k)
			}
			last = p
		}
		for metric, samples := range t {
			lt.add(metric, samples)
		}
		if last == nil {
			continue
		}
		nodes += float64(len(last.g.Nodes))
		firings += float64(last.s.TotalFirings())
		if last.plan != nil {
			nodesAfter += float64(len(last.g2.Nodes))
			replicas += float64(last.plan.Replicas)
			scales = append(scales, float64(sinkItems(last.g2, last.s2))/float64(sinkItems(last.g, last.s)))
			imbalances = append(imbalances, last.imbalance())
		}
	}
	for metric, parts := range lt {
		b.res.set(metric, "ms", combine(parts, sum))
	}
	b.res.setPoint("ir.nodes", "count", nodes)
	b.res.setPoint("sched.firings_per_iter", "count", firings)
	if w.mapped {
		b.res.setPoint("partition.nodes_after", "count", nodesAfter)
		b.res.setPoint("partition.replicas", "count", replicas)
		b.res.setPoint("partition.steady_scale_x", "x", geomean(scales))
		b.res.setPoint("partition.est_imbalance", "x", geomean(imbalances))
	}
}

// planned is what one layer-by-layer set-up produced.
type planned struct {
	g, g2  *ir.Graph
	s, s2  *sched.Schedule
	plan   *partition.ExecPlan
	assign []int
}

// imbalance is the partitioner's own estimate: the busiest worker's work
// per steady iteration over the mean.
func (p *planned) imbalance() float64 {
	per := make([]float64, p.plan.Workers)
	var total float64
	for _, n := range p.g2.Nodes {
		if n.Kind == ir.NodeFilter {
			// The plan's estimate where the rewrite made one, else the
			// static estimator's: the same fallback the packer uses.
			cycles, ok := p.plan.Work[n.Filter]
			if !ok {
				cycles = wfunc.EstimateKernel(n.Filter.Kernel).Cycles
			}
			wk := float64(cycles) * float64(p.s2.Reps[n.ID])
			per[p.assign[n.ID]] += wk
			total += wk
		}
	}
	if total == 0 {
		return 0
	}
	return sortedCopy(per)[len(per)-1] / (total / float64(len(per)))
}

// setupByLayer is one traced set-up of app a; durations land in t keyed by
// metric name, in seconds.
func (b *bench) setupByLayer(w *compiledWorkload, a appWork, t map[string][]float64) (*planned, error) {
	lane := b.tr.lane("layers " + a.name)
	defer b.tr.span(lane, "harness", "setup by layer "+a.name)()
	step := func(metric, layer, op string, f func() error) error {
		d, err := b.tr.timed(lane, layer, op, f)
		if err != nil {
			return fmt.Errorf("%s: %w", op, err)
		}
		t[metric] = append(t[metric], d.Seconds())
		return nil
	}
	var prog *ir.Program
	var text string
	var err error
	if isStr(a.name) {
		if text, err = b.src.text(a.name); err != nil {
			return nil, err
		}
		err = step("lang.compile_ms", "lang", "ParseAndElaborate", func() (err error) {
			prog, err = lang.ParseAndElaborate(text, "Main")
			return err
		})
	} else {
		var build func() *ir.Program
		if build, err = suiteBuilder(a.name); err == nil {
			prog = build()
		}
	}
	if err != nil {
		return nil, err
	}
	p := &planned{}
	if err := step("ir.flatten_ms", "ir", "Flatten", func() (err error) { p.g, err = ir.Flatten(prog); return err }); err != nil {
		return nil, err
	}
	if err := step("sched.compute_ms", "sched", "Compute", func() (err error) { p.s, err = sched.Compute(p.g); return err }); err != nil {
		return nil, err
	}
	var c *core.Compiled
	err = step("core.compile_ms", "core", "Compile", func() (err error) {
		if text != "" {
			c, err = core.CompileSource(text, "Main", core.Options{})
		} else {
			c, err = core.Compile(prog, core.Options{})
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	err = step("vm.compile_ms", "vm", "Compile", func() error {
		seen := map[*wfunc.Func]bool{}
		for _, n := range p.g.Nodes {
			if n.Kind != ir.NodeFilter || seen[n.Filter.Kernel.Work] {
				continue
			}
			seen[n.Filter.Kernel.Work] = true
			if _, err := vm.Compile(n.Filter.Kernel.Work); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !w.mapped {
		return p, step("exec.engine_build_ms", "exec", "EngineOpts", func() error {
			_, err := c.EngineOpts(w.runOptions(variant{}))
			return err
		})
	}
	opts := exec.Options{CheckpointEvery: w.ckptEvery}
	err = step("partition.plan_ms", "partition", "plan", func() (err error) {
		// The four calls core.MappedEngineOpts makes between Compile and
		// NewMappedOpts, each under its own span.
		_, err = b.tr.timed(lane, "partition", "BuildExecPlan", func() (err error) {
			p.plan, err = partition.BuildExecPlan(prog, p.g, p.s, partition.ExecPlanOptions{Strategy: w.strategy, Workers: workers})
			return err
		})
		if err != nil {
			return err
		}
		if _, err = b.tr.timed(lane, "ir", "Flatten rewritten", func() (err error) { p.g2, err = ir.Flatten(p.plan.Program); return err }); err != nil {
			return err
		}
		if _, err = b.tr.timed(lane, "sched", "Compute rewritten", func() (err error) { p.s2, err = sched.Compute(p.g2); return err }); err != nil {
			return err
		}
		if p.plan.Pipelined {
			_, err = b.tr.timed(lane, "partition", "PipelineStages", func() error {
				st, err := partition.PipelineStages(p.g2)
				if err == nil {
					opts.Stages, opts.StageClusters = st.Levels, st.Clusters
				}
				return err
			})
			if err != nil {
				return err
			}
		}
		p.assign = p.plan.Assign(p.g2, p.s2)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, step("exec.engine_build_ms", "exec", "NewMappedOpts", func() error {
		_, err := exec.NewMappedOpts(p.g2, p.s2, p.assign, p.plan.Workers, opts)
		return err
	})
}

// cacheHit times core's compiled-program cache answering for a source it
// has already compiled — what serve pays to load a known program.
func (b *bench) cacheHit() {
	cache := core.NewCache()
	var hits []float64
	for _, a := range seqSuite.apps {
		if !isStr(a.name) {
			continue
		}
		text, err := b.src.text(a.name)
		if err == nil {
			_, _, err = cache.CompileSource(text, "Main", core.Options{})
		}
		if !b.res.op("cache fill "+a.name, err) {
			continue
		}
		lane := b.tr.lane("cache " + a.name)
		var raw []float64
		k := b.host.bracket(func() {
			for i := 0; i < 50; i++ {
				d, err := b.tr.timed(lane, "core", "Cache.CompileSource hit", func() error {
					_, hit, err := cache.CompileSource(text, "Main", core.Options{})
					if err == nil && !hit {
						err = fmt.Errorf("cache missed")
					}
					return err
				})
				if !b.res.op("cache hit "+a.name, err) {
					break
				}
				raw = append(raw, d.Seconds()*1e6)
			}
		})
		for _, us := range raw {
			hits = append(hits, us*k)
		}
	}
	b.res.set("core.cache_hit_us", "us", summarize(hits))
}

// sliceTape is the harness-owned tape kernels fire against standalone: a
// flat slice with a cursor — no ring, no growth, no blocking, no counters.
// An input tape reads recorded items from the cursor on; an output tape
// writes at it.
type sliceTape struct {
	buf []float64
	pos int
}

func (t *sliceTape) Peek(i int) float64 { return t.buf[t.pos+i] }
func (t *sliceTape) Pop() float64       { v := t.buf[t.pos]; t.pos++; return v }
func (t *sliceTape) Push(v float64)     { t.buf[t.pos] = v; t.pos++ }

// noMessages swallows teleport sends of kernels fired outside an engine.
type noMessages struct{}

func (noMessages) Send(int, string, []float64, int, int, bool) error { return nil }

// kernelLayers fires every filter's kernel standalone, on both backends,
// and reports kernel time per sink item next to the engine's.
func (b *bench) kernelLayers(base []*sut) {
	// Three passes over the programs (a program's kernels take a few
	// milliseconds to measure); a program reports its median pass.
	onVM, onInterp := make([][]float64, len(base)), make([][]float64, len(base))
	for pass := 0; pass < b.cfg.scale.traceReps; pass++ {
		runtime.GC() // the engines of every configuration are still resident
		for i, s := range base {
			lane := b.tr.lane("kernels " + s.app.name)
			var v, ip float64
			var err error
			k := b.host.bracket(func() {
				_, err = b.tr.timed(lane, "vm", "kernels standalone", func() (err error) {
					v, ip, err = kernelTimes(s.c, time.Duration(b.cfg.scale.batchUS)*time.Microsecond)
					return err
				})
			})
			if !b.res.op("kernels "+s.app.name, err) {
				continue
			}
			onVM[i], onInterp[i] = append(onVM[i], v*k), append(onInterp[i], ip*k)
		}
	}
	var vmNS, interpNS, share, over []float64
	for i, s := range base {
		if len(onVM[i]) == 0 || s.rate().Median <= 0 {
			continue
		}
		items := float64(sinkItems(s.c.Graph, s.c.Schedule))
		kernel, engine := median(onVM[i])/items, 1e9/s.rate().Median
		vmNS, interpNS = append(vmNS, kernel), append(interpNS, median(onInterp[i])/items)
		share = append(share, kernel/engine)
		over = append(over, max(engine-kernel, 0))
		row := b.res.row(s.app.name)
		row["kernel_ns_per_item"], row["engine_ns_per_item"] = kernel, engine
	}
	b.res.set("vm.kernel_ns_per_item", "ns", geoSummary(vmNS))
	b.res.set("wfunc.kernel_ns_per_item", "ns", geoSummary(interpNS))
	b.res.set("vm.kernel_share", "ratio", geoSummary(share))
	b.res.set("exec.seq_overhead_ns_per_item", "ns", geoSummary(over))
}

// kernelTimes returns the nanoseconds one steady iteration's worth of
// kernel firings takes with nothing else around them: every filter fired
// Reps times against a slice tape holding input recorded from a real run,
// on the VM (vm.Machine.Run) and on the interpreter (wfunc.Exec).
func kernelTimes(c *core.Compiled, batchTime time.Duration) (vmNS, interpNS float64, err error) {
	// Record each filter's input stream over enough iterations to cover one
	// iteration's pops plus the peek window beyond them.
	iters := 1
	for _, n := range c.Graph.Nodes {
		if n.Kind != ir.NodeFilter || n.InEdge() == nil {
			continue
		}
		k := n.Filter.Kernel
		if perIter := k.Pop * c.Schedule.Reps[n.ID]; perIter > 0 {
			iters = max(iters, 1+(k.Peek-k.Pop+perIter-1)/perIter)
		}
	}
	e, err := c.EngineOpts(core.RunOptions{})
	if err != nil {
		return 0, 0, err
	}
	streams := map[int][]float64{}
	for _, n := range c.Graph.Nodes {
		if n.Kind == ir.NodeFilter && n.InEdge() != nil {
			id := n.ID
			if err := e.TapSink(n.Name, func(v float64) { streams[id] = append(streams[id], v) }); err != nil {
				return 0, 0, err
			}
		}
	}
	if err := e.Run(iters); err != nil {
		return 0, 0, err
	}
	for _, n := range c.Graph.Nodes {
		if n.Kind != ir.NodeFilter {
			continue
		}
		k, reps := n.Filter.Kernel, c.Schedule.Reps[n.ID]
		if need := k.Pop*reps + max(k.Peek-k.Pop, 0); len(streams[n.ID]) < need {
			return 0, 0, fmt.Errorf("%s: recorded %d input items, one iteration needs %d", n.Name, len(streams[n.ID]), need)
		}
		prog, err := vm.Compile(k.Work)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", n.Name, err)
		}
		for _, onVM := range []bool{true, false} {
			st := k.NewState()
			if k.Init != nil {
				env := wfunc.NewEnv(k.Init)
				env.State = st
				if err := wfunc.Exec(k.Init, env); err != nil {
					return 0, 0, fmt.Errorf("init of %s: %w", n.Name, err)
				}
			}
			in, out := &sliceTape{buf: streams[n.ID]}, &sliceTape{buf: make([]float64, k.Push*reps)}
			var fire func() error
			if onVM {
				m := vm.NewMachine(prog)
				m.SetState(st)
				fire = func() error { return m.Run(in, out, noMessages{}, nil) }
			} else {
				env := wfunc.NewEnv(k.Work)
				env.State, env.In, env.Out, env.Msg = st, in, out, noMessages{}
				fire = func() error { env.Reset(); return wfunc.Exec(k.Work, env) }
			}
			// One round is one iteration's firings. Rounds are timed in
			// batches of at least batchTime, long enough that reading the
			// clock and the first, cold rounds do not show; the median batch
			// gives the filter's time per round.
			round := func() error {
				in.pos, out.pos = 0, 0
				for r := 0; r < reps; r++ {
					if err := fire(); err != nil {
						return fmt.Errorf("%s standalone: %w", n.Name, err)
					}
				}
				return nil
			}
			batch := 1
			var rounds []float64
			for len(rounds) < 5 {
				t0 := time.Now()
				for i := 0; i < batch; i++ {
					if err := round(); err != nil {
						return 0, 0, err
					}
				}
				d := time.Since(t0)
				if d < batchTime && batch < 1<<16 {
					batch *= 2 // also discards the cold first rounds
					continue
				}
				rounds = append(rounds, float64(d.Nanoseconds())/float64(batch))
			}
			if onVM {
				vmNS += median(rounds)
			} else {
				interpNS += median(rounds)
			}
		}
	}
	return vmNS, interpNS, nil
}
