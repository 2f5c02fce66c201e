package bench

import (
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"
	"time"

	"streamit/internal/apps"
	"streamit/internal/exec"
	"streamit/internal/ir"
	"streamit/internal/obs"
	"streamit/internal/partition"
	"streamit/internal/sched"
)

// MappedStrategies are the host-executable rewrite strategies measured by
// MappedBench, in table order.
var MappedStrategies = []partition.Strategy{
	partition.StratTask, partition.StratFineData, partition.StratCoarseData,
	partition.StratSWP, partition.StratCombined,
}

// MappedRow reports one app of the host-mapped engine benchmark: sink
// items per wall-clock second on the goroutine-per-filter plan (the mapped
// engine over the unrewritten graph, one worker per node) and on the
// MappedEngine under each host-executable rewrite strategy.
// Speedup is the best strategy's rate over the per-filter baseline —
// the rate a partitioner that picks per-app (as the paper's does) gets.
type MappedRow struct {
	Name     string
	Parallel float64
	Rates    map[partition.Strategy]float64
	Speedup  float64
}

// sinkRate measures sink items per second of an engine whose Run method
// re-initializes per call (both concurrent engines do): the iteration
// count grows until a single run fills the measurement window, so the
// timed run amortizes init and ramp-up.
func sinkRate(run func(int) error, perIter int64, minDur time.Duration) (float64, error) {
	if perIter <= 0 {
		return 0, fmt.Errorf("bench: no sink items per steady iteration")
	}
	iters := 8
	for {
		start := time.Now()
		if err := run(iters); err != nil {
			return 0, err
		}
		el := time.Since(start)
		if el >= minDur || iters >= 1<<20 {
			return float64(int64(iters)*perIter) / el.Seconds(), nil
		}
		iters *= 4
	}
}

// sinkItems counts items delivered to sinks per steady iteration. Rates
// are compared in items/sec because the mapped rewrite scales the steady
// state: one rewritten iteration covers a whole multiple of the original.
func sinkItems(g *ir.Graph, s *sched.Schedule) int64 {
	var per int64
	for _, n := range g.Nodes {
		if n.IsSink() {
			per += int64(s.Reps[n.ID] * n.TotalPop())
		}
	}
	return per
}

// MappedBench measures the host-mapped engine's coarse-grained plans
// against its goroutine-per-filter plan on the parallelization suite, with
// workers worker cores (0 selects GOMAXPROCS). The returned mean is the
// geomean best-strategy speedup over the per-filter baseline.
func MappedBench(workers int) ([]MappedRow, float64, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var rows []MappedRow
	var speedups []float64
	for _, app := range apps.Suite() {
		prog := app.Build()
		g, err := ir.Flatten(prog)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", app.Name, err)
		}
		s, err := sched.Compute(g)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", app.Name, err)
		}
		pe, err := exec.NewParallelOpts(g, s, exec.Options{})
		if err != nil {
			return nil, 0, fmt.Errorf("%s parallel: %w", app.Name, err)
		}
		base, err := sinkRate(pe.Run, sinkItems(g, s), MeasureDur)
		if err != nil {
			return nil, 0, fmt.Errorf("%s parallel: %w", app.Name, err)
		}
		row := MappedRow{Name: app.Name, Parallel: base, Rates: map[partition.Strategy]float64{}}
		best := 0.0
		for _, strat := range MappedStrategies {
			rate, err := measureMapped(app, strat, workers)
			if err != nil {
				return nil, 0, fmt.Errorf("%s %s: %w", app.Name, strat, err)
			}
			row.Rates[strat] = rate
			if rate > best {
				best = rate
			}
		}
		row.Speedup = best / base
		speedups = append(speedups, row.Speedup)
		rows = append(rows, row)
	}
	return rows, GeoMean(speedups), nil
}

func measureMapped(app apps.App, strat partition.Strategy, workers int) (float64, error) {
	prog := app.Build()
	g, err := ir.Flatten(prog)
	if err != nil {
		return 0, err
	}
	s, err := sched.Compute(g)
	if err != nil {
		return 0, err
	}
	plan, err := partition.BuildExecPlan(prog, g, s, partition.ExecPlanOptions{Strategy: strat, Workers: workers})
	if err != nil {
		return 0, err
	}
	g2, err := ir.Flatten(plan.Program)
	if err != nil {
		return 0, err
	}
	s2, err := sched.Compute(g2)
	if err != nil {
		return 0, err
	}
	var opts exec.Options
	if plan.Pipelined {
		st, err := partition.PipelineStages(g2)
		if err != nil {
			return 0, err
		}
		opts.Stages = st.Levels
		opts.StageClusters = st.Clusters
	}
	me, err := exec.NewMappedOpts(g2, s2, plan.Assign(g2, s2), plan.Workers, opts)
	if err != nil {
		return 0, err
	}
	return sinkRate(me.Run, sinkItems(g2, s2), MeasureDur)
}

// WriteMappedSnapshots persists the mapped-engine measurements: one
// BENCH_<app>.json per app plus a BENCH_mapped_suite.json geomean.
// WriteMappedSnapshots is exported for the module-root benchmark.
func WriteMappedSnapshots(rows []MappedRow, mean float64, workers int) error {
	if JSONDir == "" {
		return nil
	}
	for _, r := range rows {
		b := obs.NewBench(r.Name)
		b.Set("parallel_items_per_sec", r.Parallel, "items/s")
		b.Set("mapped_task_items_per_sec", r.Rates[partition.StratTask], "items/s")
		b.Set("mapped_fine_items_per_sec", r.Rates[partition.StratFineData], "items/s")
		b.Set("mapped_taskdata_items_per_sec", r.Rates[partition.StratCoarseData], "items/s")
		b.Set("mapped_taskswp_items_per_sec", r.Rates[partition.StratSWP], "items/s")
		b.Set("mapped_combined_items_per_sec", r.Rates[partition.StratCombined], "items/s")
		b.Set("mapped_speedup_x", r.Speedup, "x")
		if _, err := b.WriteFile(JSONDir); err != nil {
			return err
		}
	}
	b := obs.NewBench("mapped_suite")
	b.Set("workers", float64(workers), "cores")
	b.Set("mapped_speedup_geomean_x", mean, "x")
	if _, err := b.WriteFile(JSONDir); err != nil {
		return err
	}
	return WriteSWPSnapshot(rows, workers)
}

// MappedSWPBench runs the focused software-pipelining comparison: every
// suite app under task, task+data, and both pipelined strategies (no
// per-filter baseline, no fine-grained fission — the lockstep plans the
// pipelined ones are judged against). The returned means are the geomean
// ratio of the best pipelined strategy over task+data and over task.
func MappedSWPBench(workers int) ([]MappedRow, float64, float64, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	strats := []partition.Strategy{partition.StratTask, partition.StratCoarseData,
		partition.StratSWP, partition.StratCombined}
	var rows []MappedRow
	for _, app := range apps.Suite() {
		row := MappedRow{Name: app.Name, Rates: map[partition.Strategy]float64{}}
		for _, strat := range strats {
			rate, err := measureMapped(app, strat, workers)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("%s %s: %w", app.Name, strat, err)
			}
			row.Rates[strat] = rate
		}
		rows = append(rows, row)
	}
	vsTaskdata, vsTask := swpRatios(rows)
	return rows, GeoMean(vsTaskdata), GeoMean(vsTask), nil
}

// swpRatios computes, per app, the best pipelined rate over the task+data
// and task rates.
func swpRatios(rows []MappedRow) (vsTaskdata, vsTask []float64) {
	for _, r := range rows {
		swp := r.Rates[partition.StratSWP]
		if c := r.Rates[partition.StratCombined]; c > swp {
			swp = c
		}
		if td := r.Rates[partition.StratCoarseData]; td > 0 {
			vsTaskdata = append(vsTaskdata, swp/td)
		}
		if tk := r.Rates[partition.StratTask]; tk > 0 {
			vsTask = append(vsTask, swp/tk)
		}
	}
	return vsTaskdata, vsTask
}

// WriteSWPSnapshot persists the software-pipelining comparison
// (BENCH_mapped_swp.json): the headline geomean ratio of the best
// pipelined strategy (task+swp or task+data+swp, whichever wins per app)
// over the task+data plan, and the same ratio over plain task.
func WriteSWPSnapshot(rows []MappedRow, workers int) error {
	if JSONDir == "" {
		return nil
	}
	vsTaskdata, vsTask := swpRatios(rows)
	b := obs.NewBench("mapped_swp")
	b.Set("workers", float64(workers), "cores")
	b.Set("apps", float64(len(rows)), "count")
	b.Set("swp_vs_taskdata_geomean_x", GeoMean(vsTaskdata), "x")
	b.Set("swp_vs_task_geomean_x", GeoMean(vsTask), "x")
	_, err := b.WriteFile(JSONDir)
	return err
}

// PrintMapped renders the host-mapped engine table: items/sec per strategy
// against the goroutine-per-filter baseline.
func PrintMapped(w io.Writer) error {
	workers := runtime.GOMAXPROCS(0)
	rows, mean, err := MappedBench(workers)
	if err != nil {
		return err
	}
	if err := WriteMappedSnapshots(rows, mean, workers); err != nil {
		return err
	}
	fmt.Fprintf(w, "Table mapped: host-mapped engine, sink items/sec (%d workers)\n", workers)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Benchmark\tper-filter\ttask\tfine-grained data\ttask+data\ttask+swp\ttask+data+swp\tspeedup")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.2fx\n",
			r.Name, r.Parallel,
			r.Rates[partition.StratTask],
			r.Rates[partition.StratFineData],
			r.Rates[partition.StratCoarseData],
			r.Rates[partition.StratSWP],
			r.Rates[partition.StratCombined],
			r.Speedup)
	}
	fmt.Fprintf(tw, "geometric mean\t\t\t\t\t\t\t%.2fx\n", mean)
	return tw.Flush()
}
