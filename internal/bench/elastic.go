package bench

import (
	"bytes"
	"fmt"
	"io"
	"text/tabwriter"

	"streamit/internal/exec"
	"streamit/internal/ir"
	"streamit/internal/obs"
	"streamit/internal/partition"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
)

// ElasticResult reports the elastic re-planning benchmark on the skewed
// synthetic pipeline: the predicted bottleneck (the busiest worker's
// measured nanoseconds per steady iteration — the quantity a plan
// actually controls, and machine-independent where wall throughput is
// not) under the mis-planned static assignment, under the assignment the
// elastic engine converged to from its live profile, and under the oracle
// assignment a planner with perfect per-firing measurements produces.
// Convergence is the oracle bottleneck as a fraction of the elastic one
// (100% = the controller found a packing as good as the oracle's). Wall
// rates are reported alongside; on hosts with fewer cores than workers
// they flatten together and only the bottleneck numbers separate the
// plans. ResizeOK reports the bit-identity check: a run that shrinks its
// worker count mid-flight ends in exactly the state of an undisturbed
// run.
type ElasticResult struct {
	Workers        int
	StaticNS       int64   // predicted bottleneck ns/iter, stale static plan
	ElasticNS      int64   // predicted bottleneck ns/iter, converged elastic plan
	OracleNS       int64   // predicted bottleneck ns/iter, perfect-measurement plan
	ConvergencePct float64 // oracle / elastic * 100
	StaticRate     float64 // sink items/sec, stale static plan
	ElasticRate    float64 // sink items/sec, elastic re-planning on
	OracleRate     float64 // sink items/sec, plan from perfect measurements
	Replans        int     // re-plans the elastic engine performed
	ResizeOK       bool    // mid-run resize ended bit-identical
	ResizeWorkers  int     // worker count the resize run finished on
}

// ElasticWorkers is the machine size of the elastic benchmark.
const ElasticWorkers = 4

// elasticSpins sizes the hot filters' true cost (busy-work loop
// iterations per firing, roughly a nanosecond each).
const elasticSpins = 30000

// elasticFilter is a peek-1/pop-1/push-1 IL filter whose kernel carries a
// busy loop of the given length — the static planner's only evidence of
// its cost.
func elasticFilter(name string, loops int) *ir.Filter {
	b := wfunc.NewKernel(name, 1, 1, 1)
	i, s := b.Local("i"), b.Local("s")
	b.WorkBody(
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(loops),
			wfunc.Set(s, wfunc.AddX(s, wfunc.MulX(i, wfunc.C(1.0001))))),
		wfunc.Pop1(),
		wfunc.Push1(s),
	)
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
}

// elasticProg builds the skewed pipeline: three "decoy" filters whose
// kernels look expensive to the static estimator, and two "hot" filters
// that look free. At run time the costs are inverted (OverrideWork makes
// the decoys pass-throughs and the hots spin), so the static LPT packing
// — decoys spread out, both hots sharing the leftover worker — is
// maximally wrong, and a planner fed the true measurements separates the
// hots instead.
func elasticProg() *ir.Program {
	return &ir.Program{Name: "skew", Top: ir.Pipe("main",
		exec.RampSource("src"),
		elasticFilter("decoy0", 4000),
		elasticFilter("decoy1", 4000),
		elasticFilter("decoy2", 4000),
		elasticFilter("hot0", 2),
		elasticFilter("hot1", 2),
		exec.NullSink("snk", 1))}
}

// elasticOverrides installs the true runtime costs on a mapped engine:
// decoys become pass-throughs, hots spin for elasticSpins iterations. Both
// honor the kernels' 1-in/1-out rates, so schedules and checkpoint images
// stay valid and every engine variant computes the same stream.
func elasticOverrides(me *exec.MappedEngine) error {
	pass := func(in, out wfunc.Tape) { out.Push(in.Pop()) }
	spin := func(in, out wfunc.Tape) {
		v := in.Pop()
		s := 0.0
		for i := 0; i < elasticSpins; i++ {
			s += float64(i&7) * 1e-12
		}
		out.Push(v + s*0)
	}
	for _, name := range []string{"decoy0", "decoy1", "decoy2"} {
		if err := me.OverrideWork(name, pass); err != nil {
			return err
		}
	}
	for _, name := range []string{"hot0", "hot1"} {
		if err := me.OverrideWork(name, spin); err != nil {
			return err
		}
	}
	return nil
}

// elasticTopology compiles the skewed pipeline under the task strategy (no
// rewrite, so instance names survive flat and re-plans only move the
// packing) and returns the plan alongside its elaborated graph, schedule,
// and static assignment.
func elasticTopology(workers int) (*partition.ExecPlan, *ir.Graph, *sched.Schedule, []int, error) {
	prog := elasticProg()
	g, err := ir.Flatten(prog)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	s, err := sched.Compute(g)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	plan, err := partition.BuildExecPlan(prog, g, s, partition.ExecPlanOptions{Strategy: partition.StratTask, Workers: workers})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	g2, err := ir.Flatten(plan.Program)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	s2, err := sched.Compute(g2)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return plan, g2, s2, plan.Assign(g2, s2), nil
}

// elasticBottleneck predicts an assignment's bottleneck: the busiest
// worker's measured nanoseconds per steady iteration (per-firing cost
// times repetitions, summed per worker, maximum over workers).
func elasticBottleneck(g2 *ir.Graph, s2 *sched.Schedule, assign []int, workers int, perFiringNS map[string]int64) int64 {
	busy := make([]int64, workers)
	for _, n := range g2.Nodes {
		if n.Kind != ir.NodeFilter {
			continue
		}
		busy[assign[n.ID]] += perFiringNS[n.Name] * int64(s2.Reps[n.ID])
	}
	var max int64
	for _, b := range busy {
		if b > max {
			max = b
		}
	}
	return max
}

// elasticEngine builds a mapped engine on the shared topology with the
// true runtime costs installed.
func elasticEngine(g2 *ir.Graph, s2 *sched.Schedule, assign []int, workers int, opts exec.Options) (*exec.MappedEngine, error) {
	me, err := exec.NewMappedOpts(g2, s2, assign, workers, opts)
	if err != nil {
		return nil, err
	}
	if err := elasticOverrides(me); err != nil {
		return nil, err
	}
	return me, nil
}

// ElasticBench measures the elastic re-plan controller against the static
// mis-plan and the measured-work oracle, plus the mid-run resize
// bit-identity check. workers <= 0 selects ElasticWorkers.
func ElasticBench(workers int) (*ElasticResult, error) {
	if workers <= 0 {
		workers = ElasticWorkers
	}
	if workers < 2 {
		workers = 2
	}
	plan, g2, s2, staticAssign, err := elasticTopology(workers)
	if err != nil {
		return nil, err
	}
	r := &ElasticResult{Workers: workers}
	per := sinkItems(g2, s2)

	// Static: run the stale compile-time plan as-is.
	static, err := elasticEngine(g2, s2, staticAssign, workers, exec.Options{})
	if err != nil {
		return nil, err
	}
	if r.StaticRate, err = sinkRate(static.Run, per, MeasureDur); err != nil {
		return nil, err
	}

	// Oracle: profile a short run to capture the true per-firing costs,
	// then rebuild the assignment with perfect measurements.
	profiled, err := elasticEngine(g2, s2, staticAssign, workers, exec.Options{Profile: true})
	if err != nil {
		return nil, err
	}
	if err := profiled.Run(32); err != nil {
		return nil, err
	}
	measured := profiled.Profile().WorkNSPerFiring()
	oracleAssign := plan.AssignMeasured(g2, s2, workers, measured)
	oracle, err := elasticEngine(g2, s2, oracleAssign, workers, exec.Options{})
	if err != nil {
		return nil, err
	}
	if r.OracleRate, err = sinkRate(oracle.Run, per, MeasureDur); err != nil {
		return nil, err
	}
	r.StaticNS = elasticBottleneck(g2, s2, staticAssign, workers, measured)
	r.OracleNS = elasticBottleneck(g2, s2, oracleAssign, workers, measured)

	// Elastic: start from the same stale plan, let the windowed imbalance
	// detector discover the skew and re-pack at a barrier. The engine keeps
	// its converged assignment across sinkRate's warm-up runs, so the timed
	// window measures the post-convergence rate plus any residual
	// controller overhead.
	elastic, err := elasticEngine(g2, s2, staticAssign, workers, exec.Options{
		Elastic: true, ElasticWindow: 8, CheckpointEvery: 8,
	})
	if err != nil {
		return nil, err
	}
	elastic.Replan = func(target int, perFiring map[string]int64) []int {
		return plan.AssignMeasured(g2, s2, target, perFiring)
	}
	if r.ElasticRate, err = sinkRate(elastic.Run, per, MeasureDur); err != nil {
		return nil, err
	}
	r.Replans = elastic.Replans()
	r.ElasticNS = elasticBottleneck(g2, s2, elastic.Assign, elastic.Workers, measured)
	if r.ElasticNS > 0 {
		r.ConvergencePct = float64(r.OracleNS) / float64(r.ElasticNS) * 100
	}

	// Resize bit-identity: a run that drops to workers-1 at the midpoint
	// barrier must end in exactly the undisturbed run's state.
	const resizeIters, resizeAt = 40, 20
	ref, err := elasticEngine(g2, s2, staticAssign, workers, exec.Options{})
	if err != nil {
		return nil, err
	}
	if err := ref.Run(resizeIters); err != nil {
		return nil, err
	}
	resized, err := elasticEngine(g2, s2, staticAssign, workers, exec.Options{
		Elastic: true, ResizeAt: resizeAt, ResizeTo: workers - 1, CheckpointEvery: 5,
	})
	if err != nil {
		return nil, err
	}
	if err := resized.Run(resizeIters); err != nil {
		return nil, err
	}
	var refImg, rszImg bytes.Buffer
	if err := ref.WriteCheckpoint(&refImg, resizeIters); err != nil {
		return nil, err
	}
	if err := resized.WriteCheckpoint(&rszImg, resizeIters); err != nil {
		return nil, err
	}
	r.ResizeWorkers = resized.Workers
	r.ResizeOK = resized.Workers == workers-1 && resized.Replans() >= 1 &&
		bytes.Equal(refImg.Bytes(), rszImg.Bytes())
	return r, nil
}

// WriteElasticSnapshot persists the measurements as
// BENCH_mapped_elastic.json (streamit-bench/v1).
func WriteElasticSnapshot(r *ElasticResult) error {
	if JSONDir == "" {
		return nil
	}
	b := obs.NewBench("mapped_elastic")
	b.Set("workers", float64(r.Workers), "cores")
	b.Set("static_bottleneck_ns", float64(r.StaticNS), "ns/iter")
	b.Set("elastic_bottleneck_ns", float64(r.ElasticNS), "ns/iter")
	b.Set("oracle_bottleneck_ns", float64(r.OracleNS), "ns/iter")
	b.Set("elastic_vs_oracle_pct", r.ConvergencePct, "%")
	b.Set("static_items_per_sec", r.StaticRate, "items/s")
	b.Set("elastic_items_per_sec", r.ElasticRate, "items/s")
	b.Set("oracle_items_per_sec", r.OracleRate, "items/s")
	b.Set("replans", float64(r.Replans), "count")
	resize := 0.0
	if r.ResizeOK {
		resize = 1
	}
	b.Set("resize_bit_identical", resize, "bool")
	_, err := b.WriteFile(JSONDir)
	return err
}

// PrintElastic renders the elastic re-planning table: static mis-plan vs
// elastic vs measured-work oracle, and the mid-run resize identity check.
func PrintElastic(w io.Writer) error {
	r, err := ElasticBench(ElasticWorkers)
	if err != nil {
		return err
	}
	if err := WriteElasticSnapshot(r); err != nil {
		return err
	}
	fmt.Fprintf(w, "Table elastic: runtime re-planning on the skewed pipeline (%d workers)\n", r.Workers)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Metric\tBottleneck\tThroughput")
	fmt.Fprintf(tw, "static mis-plan\t%d ns/iter\t%.0f items/s\n", r.StaticNS, r.StaticRate)
	fmt.Fprintf(tw, "elastic (live re-plan)\t%d ns/iter\t%.0f items/s\n", r.ElasticNS, r.ElasticRate)
	fmt.Fprintf(tw, "oracle (perfect measurements)\t%d ns/iter\t%.0f items/s\n", r.OracleNS, r.OracleRate)
	fmt.Fprintf(tw, "elastic vs oracle (bottleneck)\t%.1f%%\t\n", r.ConvergencePct)
	fmt.Fprintf(tw, "re-plans performed\t%d\n", r.Replans)
	fmt.Fprintf(tw, "mid-run resize (%d -> %d workers)\tbit-identical: %v\n",
		r.Workers, r.ResizeWorkers, r.ResizeOK)
	return tw.Flush()
}
