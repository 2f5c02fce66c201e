package partition

import (
	"fmt"
	"runtime"

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
	// (coarsen+fission plus stages). The simulation-only sequential and space
	// strategies are rejected.
	Strategy Strategy
	// Workers is the target core count; 0 selects runtime.GOMAXPROCS(0).
	Workers int
}

// ExecPlan is an executable mapping plan: the elaborated IR rewritten by
// fusion and executable fission, plus per-filter work estimates for
// assigning the flattened result to worker cores. Its Program runs on the
// real engines and must be bit-identical to the original; Lower hands the
// same plan to the machine simulator.
type ExecPlan struct {
	Strategy Strategy
	Workers  int
	// Program is the rewritten program (the original when Strategy is
	// StratTask). Rewritten filters are fresh; untouched filters are shared
	// with the input program.
	Program *ir.Program
	// Work estimates cycles per firing for filters of Program, on the
	// static estimator's scale.
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
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	b := &planBuilder{
		strategy: opts.Strategy,
		workers:  workers,
		graph:    g,
		sch:      s,
		work:     SteadyWork(g, s),
		plan: &ExecPlan{
			Strategy:  opts.Strategy,
			Workers:   workers,
			Work:      map[*ir.Filter]int64{},
			Pipelined: opts.Strategy.Pipelined(),
		},
	}
	for _, w := range b.work {
		b.total += w
	}
	// StratTask and StratSWP keep the program untouched, and so does every
	// strategy for a teleport-messaging program: sdep delivery windows are
	// computed on the executing graph, so rewriting the nodes between
	// messaging endpoints could move deliveries to different firing
	// boundaries than the sequential reference on the original program.
	if opts.Strategy == StratTask || opts.Strategy == StratSWP ||
		len(prog.Portals) > 0 || len(prog.Constraints) > 0 {
		b.plan.Program = prog
		return b.plan, nil
	}
	top, err := b.rewrite(prog.Top)
	if err != nil {
		return nil, err
	}
	b.plan.Program = &ir.Program{
		Name:  prog.Name + "_mapped",
		Top:   top,
		Named: prog.Named,
	}
	return b.plan, nil
}

// planBuilder carries the rewrite state: strategy, work estimates from the
// original schedule, and the accumulating plan.
type planBuilder struct {
	strategy Strategy
	workers  int
	graph    *ir.Graph
	sch      *sched.Schedule
	work     []int64 // steadyWork of graph, by node ID
	total    int64
	plan     *ExecPlan
}

// transformable reports whether f may participate in fusion/fission: a
// static-rate, data-carrying, stateless IL filter without messaging. Native
// filters are excluded: their closures have no IL to fuse and may not be
// reentrant, so they cannot be replicated either.
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
	return b.work[n.ID]
}

func (b *planBuilder) reps(f *ir.Filter) int64 {
	n := b.graph.FilterNode[f]
	if n == nil {
		return 1
	}
	return int64(b.sch.Reps[n.ID])
}

// fissFactor is the judicious-fission heuristic, judged on the steady state
// scaled by 8×workers so replicas receive whole items: skip segments too
// small to be worth scattering (under a 4×workers-th of the total), then
// halve the replica count until each replica carries at least 256 cycles.
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
		// The loop rides through untouched: its nodes form one stage cluster
		// firing at sequential granularity on a single worker, so rewriting
		// inside it buys nothing and risks reordering the back-edge
		// interleave.
		return s, nil
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
			st, err := b.rewriteSegment([]*ir.Filter{f}, f, b.perSteady(f), b.fineFactor(f))
			if err != nil {
				return nil, err
			}
			out = append(out, st)
		}
		return out, nil
	}
	var out []ir.Stream
	for _, seg := range b.segment(run) {
		whole, work := seg[0], b.perSteady(seg[0])
		if len(seg) > 1 {
			// The estimate follows the fused kernel: each filter's share is
			// scaled to the trips fusion keeps of it.
			var trips []fuse.Trips
			var err error
			if whole, trips, err = fuse.Chain(fuse.Name(seg), seg...); err != nil {
				return nil, err
			}
			work = 0
			for i, f := range seg {
				work += b.perSteady(f) * int64(trips[i].Kept) / int64(trips[i].Of)
			}
		}
		st, err := b.rewriteSegment(seg, whole, work, b.fissFactor(work))
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

// segment cuts a run into fusable stretches: the paper's coarsening fuses
// neighbours only while the result stays stateless, so a filter that peeks
// beyond its pop rate may head a segment and never joins one.
func (b *planBuilder) segment(run []*ir.Filter) [][]*ir.Filter {
	segs := [][]*ir.Filter{{run[0]}}
	for i, f := range run[1:] {
		if fuse.CanFollow(run[i], f) != nil {
			segs = append(segs, nil)
		}
		segs[len(segs)-1] = append(segs[len(segs)-1], f)
	}
	return segs
}

// rewriteSegment emits the executable form of one fusable segment, whole
// once fused, of segWork cycles per steady iteration, with fission factor
// k: the original filter (len 1, k==1), a single fused filter (k==1), or a
// scatter/replicas/gather split-join (k>1). Every filter it synthesizes is
// plain IL; replicas are fresh Filter and Kernel values sharing immutable
// bodies.
func (b *planBuilder) rewriteSegment(seg []*ir.Filter, whole *ir.Filter, segWork int64, k int) (ir.Stream, error) {
	// Items entering the segment per original steady iteration, for
	// converting segment work to per-firing work of the fused result.
	inItems := b.reps(seg[0]) * int64(seg[0].Kernel.Pop)
	b.plan.Fused += len(seg) - 1
	kw := whole.Kernel
	P, U, E := kw.Pop, kw.Push, kw.Peek-kw.Pop
	pf := perFiring(segWork, int64(P), inItems)
	if k <= 1 {
		if len(seg) > 1 {
			b.plan.Work[whole] = pf
		}
		return whole, nil
	}

	b.plan.Replicas += k
	replicas := make([]ir.Stream, k)
	wPush := make([]int, k)
	wPop := make([]int, k)
	for r := range replicas {
		rep := replica(whole, r, k)
		rep.Kernel.Name = fmt.Sprintf("%s/f%d", kw.Name, r)
		b.plan.Work[rep] = pf
		replicas[r], wPop[r], wPush[r] = rep, P, U
	}
	// Ordered round-robin gather restores the original output order: replica
	// r handles original firings r, r+k, r+2k, ...
	split := ir.RoundRobin(wPop...)
	if E > 0 {
		// Peeking fission: every replica sees the whole stream, so each pays
		// the duplicated peek margin.
		split = ir.Duplicate()
	}
	return ir.SJ(kw.Name+"_fiss", split, ir.RoundRobin(wPush...), replicas...), nil
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

// copyFilter clones an IL filter for use as a fission replica: a fresh
// Filter and Kernel value (flattening requires single appearance) sharing
// the immutable IL bodies; per-instance state is created by the engines.
func copyFilter(f *ir.Filter) *ir.Filter {
	k := *f.Kernel
	return &ir.Filter{Kernel: &k, In: f.In, Out: f.Out}
}

// replica builds replica r of k of filter f. Behind a round-robin splitter
// (f does not peek beyond its pop rate) that is a plain copy. Behind a
// duplicate splitter every replica sees the whole stream and owns every
// k-th firing: it consumes k·P items per firing with the same E extra of
// peek margin, and runs f's own work body between r·P leading and (k-1-r)·P
// trailing pops — peeks are relative to the read position, so the leading
// pops shift the window for free, and replica r's j-th firing reproduces
// original firing j·k+r exactly.
func replica(f *ir.Filter, r, k int) *ir.Filter {
	rep := copyFilter(f)
	kr := rep.Kernel
	P, E := kr.Pop, kr.Peek-kr.Pop
	if E == 0 {
		return rep
	}
	work := *kr.Work
	skip := &wfunc.LocalRef{Idx: work.NumLocals}
	work.NumLocals++
	pops := func(n int) []wfunc.Stmt {
		if n == 0 {
			return nil
		}
		return []wfunc.Stmt{wfunc.ForUp(skip, wfunc.Ci(0), wfunc.Ci(n), wfunc.Pop1())}
	}
	work.Body = append(append(pops(r*P), work.Body...), pops((k-1-r)*P)...)
	kr.Work = &work
	kr.Pop, kr.Peek = k*P, k*P+E
	return rep
}
