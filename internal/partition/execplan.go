package partition

import (
	"fmt"
	"runtime"
	"sort"

	"streamit/internal/fuse"
	"streamit/internal/ir"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
)

// ExecPlanOptions configure the executable rewrite of a program for the
// mapped host engine.
type ExecPlanOptions struct {
	// Strategy selects the transformation: StratTask (no rewrite),
	// StratFineData (replicate every stateless filter), StratCoarseData
	// (fuse stateless regions, then judicious fission), or the pipelined
	// variants StratSWP (no rewrite, stage-assigned) and StratCombined
	// (coarsen+fission plus stages). The simulation-only space strategy is
	// rejected.
	Strategy Strategy
	// Workers is the target core count; 0 selects runtime.GOMAXPROCS(0).
	Workers int
	// MeasuredWorkNS supplies profiled per-firing work (see
	// BuildOptions.MeasuredWorkNS); it biases both the fission granularity
	// heuristic and the worker assignment.
	MeasuredWorkNS map[string]int64
}

// ExecPlan is an executable mapping plan: the elaborated IR rewritten by
// fusion and executable fission, plus per-filter work estimates for
// assigning the flattened result to worker cores. Unlike Plan (which
// feeds the machine simulator), an ExecPlan's Program runs on the real
// engines and must be bit-identical to the original.
type ExecPlan struct {
	Strategy Strategy
	Workers  int
	// Program is the rewritten program (the original when Strategy is
	// StratTask). Rewritten filters are fresh; untouched filters are shared
	// with the input program.
	Program *ir.Program
	// Work estimates cycles per firing for filters of Program, on the
	// static estimator's scale (measured-work rescaled when provided).
	// Filters synthesized by fusion/fission carry their constituents' work.
	Work map[*ir.Filter]int64
	// Fused counts filters folded away by coarsening; Replicas counts
	// fission replicas created.
	Fused    int
	Replicas int
	// Pipelined marks software-pipelined plans (StratSWP/StratCombined):
	// the mapped engine runs them with stage-skewed workers, using
	// PipelineStages over the rewritten flat graph for the stage map.
	Pipelined bool
}

// BuildExecPlan rewrites prog for execution on workers cores. g and s are
// the elaborated flat graph and schedule of prog (used for work
// estimation only; the rewritten program is re-flattened by the caller).
func BuildExecPlan(prog *ir.Program, g *ir.Graph, s *sched.Schedule, opts ExecPlanOptions) (*ExecPlan, error) {
	switch opts.Strategy {
	case StratTask, StratFineData, StratCoarseData, StratSWP, StratCombined:
	default:
		return nil, fmt.Errorf("partition: strategy %q is not host-executable (use %q, %q, %q, %q, or %q)",
			opts.Strategy, StratTask, StratFineData, StratCoarseData, StratSWP, StratCombined)
	}
	pipelined := opts.Strategy == StratSWP || opts.Strategy == StratCombined
	if hasFeedback(prog.Top) && !pipelined {
		return nil, fmt.Errorf("partition: feedback loops need finer-than-batch interleaving; the mapped engine cannot run %s (use a pipelined strategy)", prog.Name)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pg, err := BuildOpts(g, s, BuildOptions{MeasuredWorkNS: opts.MeasuredWorkNS})
	if err != nil {
		return nil, err
	}
	b := &planBuilder{
		strategy: opts.Strategy,
		workers:  workers,
		graph:    g,
		sch:      s,
		pg:       pg,
		total:    pg.TotalWork(),
		plan: &ExecPlan{
			Strategy:  opts.Strategy,
			Workers:   workers,
			Work:      map[*ir.Filter]int64{},
			Pipelined: pipelined,
		},
	}
	// StratTask and StratSWP keep the program untouched. StratCombined also
	// skips the rewrite for teleport-messaging programs: sdep delivery
	// windows are computed on the executing graph, so rewriting the nodes
	// between messaging endpoints could move deliveries to different firing
	// boundaries than the sequential reference on the original program.
	if opts.Strategy == StratTask || opts.Strategy == StratSWP ||
		(pipelined && (len(prog.Portals) > 0 || len(prog.Constraints) > 0)) {
		b.plan.Program = prog
		return b.plan, nil
	}
	top, err := b.rewrite(prog.Top)
	if err != nil {
		return nil, err
	}
	b.plan.Program = &ir.Program{
		Name:        prog.Name + "_mapped",
		Top:         top,
		Portals:     prog.Portals,
		Constraints: prog.Constraints,
		Named:       prog.Named,
	}
	return b.plan, nil
}

func hasFeedback(s ir.Stream) bool {
	switch s := s.(type) {
	case *ir.FeedbackLoop:
		return true
	case *ir.Pipeline:
		for _, c := range s.Children {
			if hasFeedback(c) {
				return true
			}
		}
	case *ir.SplitJoin:
		for _, c := range s.Children {
			if hasFeedback(c) {
				return true
			}
		}
	}
	return false
}

// planBuilder carries the rewrite state: strategy, work estimates from the
// original schedule, and the accumulating plan.
type planBuilder struct {
	strategy Strategy
	workers  int
	graph    *ir.Graph
	sch      *sched.Schedule
	pg       *PGraph
	total    int64
	plan     *ExecPlan
}

// transformable reports whether f may participate in fusion/fission: a
// static-rate, data-carrying, stateless IL filter without messaging. Native
// filters are excluded even when marked Pure — their closures may not be
// reentrant, so they cannot be replicated or re-driven by the fused runner.
func (b *planBuilder) transformable(f *ir.Filter) bool {
	k := f.Kernel
	if f.WorkFn != nil || k.Dynamic || len(k.Handlers) > 0 {
		return false
	}
	if k.Pop <= 0 || k.Push <= 0 {
		return false
	}
	return !wfunc.WritesFields(k.Work) && !wfunc.SendsMessages(k.Work)
}

// perSteady returns f's estimated cycles per steady iteration of the
// original schedule (0 for filters missing from the flat graph).
func (b *planBuilder) perSteady(f *ir.Filter) int64 {
	n := b.graph.FilterNode[f]
	if n == nil {
		return 0
	}
	return b.pg.nodes[n.ID].work
}

func (b *planBuilder) reps(f *ir.Filter) int64 {
	n := b.graph.FilterNode[f]
	if n == nil {
		return 1
	}
	return int64(b.sch.Reps[n.ID])
}

// fissFactor mirrors PGraph.fissAll's granularity heuristic on the
// 8×workers-scaled steady state: skip nodes too small to be worth
// scattering, then halve the replica count until each replica carries
// meaningful work.
func (b *planBuilder) fissFactor(work int64) int {
	if work <= 0 {
		return 1
	}
	scale := int64(8 * b.workers)
	w, total := work*scale, b.total*scale
	if w < total/int64(4*b.workers) {
		return 1
	}
	k := b.workers
	for k > 1 && w/int64(k) < 256 {
		k /= 2
	}
	return k
}

func (b *planBuilder) rewrite(s ir.Stream) (ir.Stream, error) {
	switch s := s.(type) {
	case *ir.Filter:
		if !b.transformable(s) {
			return s, nil
		}
		out, err := b.rewriteRun([]*ir.Filter{s})
		if err != nil {
			return nil, err
		}
		if len(out) != 1 {
			return nil, fmt.Errorf("partition: single-filter rewrite produced %d streams", len(out))
		}
		return out[0], nil
	case *ir.Pipeline:
		return b.rewritePipeline(s)
	case *ir.SplitJoin:
		nsj := &ir.SplitJoin{Name: s.Name, Split: s.Split, Join: s.Join}
		for _, c := range s.Children {
			nc, err := b.rewrite(c)
			if err != nil {
				return nil, err
			}
			nsj.Add(nc)
		}
		return nsj, nil
	case *ir.FeedbackLoop:
		if b.strategy == StratCombined {
			// The loop rides through untouched: its nodes form one pipeline
			// cluster firing at sequential granularity on a single worker,
			// so rewriting inside it buys nothing and risks reordering the
			// back-edge interleave.
			return s, nil
		}
		return nil, fmt.Errorf("partition: feedback loop %s reached the rewriter", s.Name)
	}
	return nil, fmt.Errorf("partition: unknown stream kind %T", s)
}

// rewritePipeline collects maximal runs of transformable filters and
// rewrites each; other children recurse.
func (b *planBuilder) rewritePipeline(p *ir.Pipeline) (ir.Stream, error) {
	out := &ir.Pipeline{Name: p.Name}
	var run []*ir.Filter
	flush := func() error {
		if len(run) == 0 {
			return nil
		}
		streams, err := b.rewriteRun(run)
		run = nil
		if err != nil {
			return err
		}
		out.Add(streams...)
		return nil
	}
	for _, c := range p.Children {
		if f, ok := c.(*ir.Filter); ok && b.transformable(f) {
			run = append(run, f)
			continue
		}
		if err := flush(); err != nil {
			return nil, err
		}
		nc, err := b.rewrite(c)
		if err != nil {
			return nil, err
		}
		out.Add(nc)
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return out, nil
}

// rewriteRun turns a maximal run of transformable filters into its
// executable form. Under fine-grained data parallelism every filter is
// replicated individually; under coarse-grained data parallelism the run
// is segmented into fusable stretches, each fused and then fissed when the
// granularity heuristic approves.
func (b *planBuilder) rewriteRun(run []*ir.Filter) ([]ir.Stream, error) {
	if b.strategy == StratFineData {
		var out []ir.Stream
		for _, f := range run {
			st, err := b.rewriteSegment([]*ir.Filter{f}, b.fineFactor(f))
			if err != nil {
				return nil, err
			}
			out = append(out, st)
		}
		return out, nil
	}
	var out []ir.Stream
	for _, seg := range b.segment(run) {
		var work int64
		for _, f := range seg {
			work += b.perSteady(f)
		}
		st, err := b.rewriteSegment(seg, b.fissFactor(work))
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

// fineFactor is fine-grained data parallelism's replica count: every
// stateless filter with any work gets workers replicas, no granularity
// judgment — the strawman the paper measures against.
func (b *planBuilder) fineFactor(f *ir.Filter) int {
	if b.perSteady(f) <= 0 {
		return 1
	}
	return b.workers
}

// segment splits a run at boundaries where fusion fails (probed on
// throwaway copies so the originals stay untouched).
func (b *planBuilder) segment(run []*ir.Filter) [][]*ir.Filter {
	var segs [][]*ir.Filter
	cur := []*ir.Filter{run[0]}
	probe := ir.Stream(copyFilter(run[0], ""))
	for _, f := range run[1:] {
		var fused *ir.Filter
		var err error
		if pf, ok := probe.(*ir.Filter); ok {
			fused, err = fuse.Pipeline("probe", pf, copyFilter(f, ""))
		}
		if err != nil || fused == nil {
			segs = append(segs, cur)
			cur = []*ir.Filter{f}
			probe = copyFilter(f, "")
			continue
		}
		probe = fused
		cur = append(cur, f)
	}
	return append(segs, cur)
}

// rewriteSegment emits the executable form of one fusable segment with
// fission factor k: the original filter (len 1, k==1), a single fused
// filter (k==1), or a scatter/replicas/gather split-join (k>1). Replicas
// are built from fresh copies so no kernel state or fused closure is
// shared between them.
func (b *planBuilder) rewriteSegment(seg []*ir.Filter, k int) (ir.Stream, error) {
	var segWork int64
	for _, f := range seg {
		segWork += b.perSteady(f)
	}
	// Items entering the segment per original steady iteration, for
	// converting segment work to per-firing work of the fused result.
	inItems := b.reps(seg[0]) * int64(seg[0].Kernel.Pop)

	if k <= 1 {
		if len(seg) == 1 {
			return seg[0], nil
		}
		fused, err := foldFuse(seg)
		if err != nil {
			return nil, err
		}
		b.plan.Fused += len(seg) - 1
		b.plan.Work[fused] = perFiring(segWork, int64(fused.Kernel.Pop), inItems)
		return fused, nil
	}

	name := segName(seg)
	replicas := make([]*ir.Filter, k)
	for r := 0; r < k; r++ {
		copies := make([]*ir.Filter, len(seg))
		for i, f := range seg {
			copies[i] = copyFilter(f, "")
		}
		var rep *ir.Filter
		if len(copies) == 1 {
			rep = copies[0]
		} else {
			var err error
			rep, err = foldFuse(copies)
			if err != nil {
				return nil, err
			}
		}
		rep.Kernel.Name = fmt.Sprintf("%s/f%d", name, r)
		replicas[r] = rep
	}
	if len(seg) > 1 {
		b.plan.Fused += len(seg) - 1
	}
	b.plan.Replicas += k

	kr := replicas[0].Kernel
	P, U, E := kr.Pop, kr.Push, kr.Peek-kr.Pop
	wPop := make([]int, k)
	wPush := make([]int, k)
	for r := range wPop {
		wPop[r], wPush[r] = P, U
	}
	pf := perFiring(segWork, int64(P), inItems)
	if E == 0 {
		// Round-robin scatter of each replica's pop quantum; ordered
		// round-robin gather restores the original output order (replica r
		// handles original firings r, r+k, r+2k, ...).
		for _, rep := range replicas {
			b.plan.Work[rep] = pf
		}
		return ir.SJ(name+"_fiss", ir.RoundRobin(wPop...), ir.RoundRobin(wPush...), filterStreams(replicas)...), nil
	}
	// Peeking fission: every replica sees the whole stream (duplicate
	// splitter) and runs one constituent firing per k·P consumed items,
	// reading its slice through an offset window — PGraph.fiss's duplicated
	// peek margin, made executable.
	wrapped := make([]*ir.Filter, k)
	for r, rep := range replicas {
		w, err := wrapPeekingReplica(rep, r, k)
		if err != nil {
			return nil, err
		}
		b.plan.Work[w] = pf
		wrapped[r] = w
	}
	return ir.SJ(name+"_fiss", ir.Duplicate(), ir.RoundRobin(wPush...), filterStreams(wrapped)...), nil
}

// perFiring converts segment work per original steady iteration into
// cycles per fused firing: the fused filter consumes P items per firing
// out of inItems per steady iteration.
func perFiring(work, pop, inItems int64) int64 {
	if inItems <= 0 {
		return 1
	}
	w := work * pop / inItems
	if w < 1 {
		w = 1
	}
	return w
}

func segName(seg []*ir.Filter) string {
	name := seg[0].Kernel.Name
	for _, f := range seg[1:] {
		name += "+" + f.Kernel.Name
	}
	return name
}

func filterStreams(fs []*ir.Filter) []ir.Stream {
	out := make([]ir.Stream, len(fs))
	for i, f := range fs {
		out[i] = f
	}
	return out
}

// copyFilter clones an IL filter for use as a fission replica: a fresh
// Filter and Kernel value (flattening requires single appearance) sharing
// the immutable IL bodies; per-instance state is created by the engines.
func copyFilter(f *ir.Filter, tag string) *ir.Filter {
	k := *f.Kernel
	k.Name = f.Kernel.Name + tag
	return &ir.Filter{Kernel: &k, In: f.In, Out: f.Out, Pure: f.Pure}
}

// foldFuse fuses a segment left to right into one filter.
func foldFuse(seg []*ir.Filter) (*ir.Filter, error) {
	acc := seg[0]
	for _, f := range seg[1:] {
		fused, err := fuse.Pipeline(acc.Kernel.Name+"+"+f.Kernel.Name, acc, f)
		if err != nil {
			return nil, err
		}
		acc = fused
	}
	return acc, nil
}

// wrapPeekingReplica builds replica r of k for a peeking filter: a native
// filter consuming k·P items per firing with a peek margin of E extra,
// running the inner filter once over the window starting at r·P. The
// duplicate splitter delivers the full stream to every replica, so replica
// r's j-th firing reproduces original firing j·k+r exactly.
func wrapPeekingReplica(inner *ir.Filter, r, k int) (*ir.Filter, error) {
	ki := inner.Kernel
	P, U, E := ki.Pop, ki.Push, ki.Peek-ki.Pop
	peek, pop := k*P+E, k*P

	shell := wfunc.NewKernel(ki.Name, peek, pop, U)
	shell.Dynamic() // skip the static body check; behaviour is the closure below
	shell.WorkBody()
	kern := shell.Build()
	kern.Dynamic = false
	kern.Peek, kern.Pop, kern.Push = peek, pop, U

	var fire func(in, out wfunc.Tape)
	if inner.WorkFn != nil {
		// A fused replica: its closure owns all state (none, being pure).
		fire = func(in, out wfunc.Tape) { inner.WorkFn(in, out, nil) }
	} else {
		state := ki.NewState()
		if ki.Init != nil {
			env := wfunc.NewEnv(ki.Init)
			env.State = state
			if err := wfunc.Exec(ki.Init, env); err != nil {
				return nil, fmt.Errorf("partition: init of replica %s: %w", ki.Name, err)
			}
		}
		env := wfunc.NewEnv(ki.Work)
		env.State = state
		fire = func(in, out wfunc.Tape) {
			env.Reset()
			env.In, env.Out = in, out
			if err := wfunc.Exec(ki.Work, env); err != nil {
				panic(fmt.Errorf("partition: replica %s: %w", ki.Name, err))
			}
		}
	}
	base := r * P
	workFn := func(in, out wfunc.Tape, _ *wfunc.State) {
		w := &planWindow{under: in, base: base, limit: peek}
		fire(w, out)
		for i := 0; i < pop; i++ {
			in.Pop()
		}
	}
	return &ir.Filter{Kernel: kern, In: inner.In, Out: inner.Out, WorkFn: workFn, Pure: true}, nil
}

// planWindow is a read-only offset window over a tape: peeks shift by
// base+cursor, pops advance only the cursor. Out-of-window reads panic
// with an error value so the engines report a structured ExecError.
type planWindow struct {
	under  wfunc.Tape
	base   int
	cursor int
	limit  int
}

// Peek implements wfunc.Tape.
func (t *planWindow) Peek(i int) float64 {
	idx := t.base + t.cursor + i
	if i < 0 || idx >= t.limit {
		panic(fmt.Errorf("partition: replica peek(%d) at offset %d reads past the %d-item window", i, idx, t.limit))
	}
	return t.under.Peek(idx)
}

// Pop implements wfunc.Tape.
func (t *planWindow) Pop() float64 {
	idx := t.base + t.cursor
	if idx >= t.limit {
		panic(fmt.Errorf("partition: replica pop at offset %d reads past the %d-item window", idx, t.limit))
	}
	v := t.under.Peek(idx)
	t.cursor++
	return v
}

// Push is invalid on the window.
func (t *planWindow) Push(float64) { panic("partition: replica input window is read-only") }

// Assign maps every node of the rewritten flat graph onto a worker with
// longest-processing-time bin-packing over the plan's work estimates (the
// same greedy packing the simulated mappers use). g2 and s2 must be the
// flattening and schedule of plan.Program.
func (p *ExecPlan) Assign(g2 *ir.Graph, s2 *sched.Schedule) []int {
	return p.AssignMeasured(g2, s2, p.Workers, nil)
}

// AssignMeasured is Assign onto an explicit worker count, optionally with
// live measurements — the one re-planning entry point. It packs the same
// rewritten graph without re-running the fusion/fission rewrite, so the
// elaborated graph, its schedule, and therefore the checkpoint fingerprint
// all stay fixed — only the packing moves. Crash recovery calls it with
// the surviving worker count and a nil map (the plan's static estimates);
// the elastic controller passes perFiringNS, which maps rewritten-graph
// node names (g2 names — fused segments and fission replicas, exactly the
// profiler's key space on a mapped engine) to measured work per firing in
// nanoseconds and overrides the static estimate for the nodes it covers.
// Measured weights are rescaled so covered nodes keep the covered set's
// total static weight, letting measured and estimated nodes pack on one
// scale (the same discipline as BuildOptions.MeasuredWorkNS).
func (p *ExecPlan) AssignMeasured(g2 *ir.Graph, s2 *sched.Schedule, workers int, perFiringNS map[string]int64) []int {
	if workers < 1 {
		workers = 1
	}
	nodeW := p.nodeWeights(g2, s2, perFiringNS)
	// Packing units: single nodes, except that pipelined plans keep every
	// stage cluster (feedback cycles, messaging hulls) whole — its members
	// must fire as a unit on one worker.
	type unit struct {
		members []int
		w       int64
	}
	var units []unit
	grouped := make([]bool, len(g2.Nodes))
	if p.Pipelined {
		if sp, err := PipelineStages(g2); err == nil {
			for _, c := range sp.Clusters {
				u := unit{members: c}
				for _, id := range c {
					u.w += nodeW[id]
					grouped[id] = true
				}
				units = append(units, u)
			}
		}
	}
	for _, n := range g2.Nodes {
		if !grouped[n.ID] {
			units = append(units, unit{members: []int{n.ID}, w: nodeW[n.ID]})
		}
	}
	sort.SliceStable(units, func(i, j int) bool { return units[i].w > units[j].w })
	loads := make([]int64, workers)
	assign := make([]int, len(g2.Nodes))
	for _, u := range units {
		best := 0
		for w := 1; w < len(loads); w++ {
			if loads[w] < loads[best] {
				best = w
			}
		}
		for _, id := range u.members {
			assign[id] = best
		}
		loads[best] += u.w
	}
	return assign
}
