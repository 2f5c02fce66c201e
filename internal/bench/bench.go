// Package bench regenerates every table and figure of the paper's
// evaluation (see EXPERIMENTS.md for the experiment index):
//
//	E1 benchchar   — benchmark characteristics table
//	E2 main_comp   — Task / Task+Data / Task+Data+SWP speedups, 16 tiles
//	E3 fine-dup    — fine-grained data parallelism
//	E4 softpipe    — Task and Task+SWP
//	E5 thruput     — utilization and MFLOPS of the combined technique
//	E6 vs-space    — combined technique vs space multiplexing (prior work)
//	E7 linear      — linear optimization speedups (avg ~400% in the paper)
//	E8 teleport    — teleport messaging vs manual embedding (~49%)
package bench

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"streamit/internal/apps"
	"streamit/internal/exec"
	"streamit/internal/ir"
	"streamit/internal/linear"
	"streamit/internal/machine"
	"streamit/internal/partition"
	"streamit/internal/sched"
)

// SimIters is the number of steady iterations simulated per configuration.
const SimIters = 24

// prepared caches the per-app compilation pipeline.
type prepared struct {
	app   apps.App
	prog  *ir.Program
	graph *ir.Graph
	sched *sched.Schedule
	plans map[partition.Strategy]*machine.Result
}

func prepare(app apps.App) (*prepared, error) {
	prog := app.Build()
	g, err := ir.Flatten(prog)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", app.Name, err)
	}
	s, err := sched.Compute(g)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", app.Name, err)
	}
	return &prepared{app: app, prog: prog, graph: g, sched: s,
		plans: map[partition.Strategy]*machine.Result{}}, nil
}

// simulate lowers the app's plan under strat onto cfg's tiles
// (partition.Lower, the plan the mapped engine runs) and simulates it.
func (p *prepared) simulate(strat partition.Strategy, cfg machine.Config) (*machine.Result, error) {
	plan, err := partition.Lower(p.prog, p.graph, p.sched, strat, cfg.Tiles())
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", p.app.Name, strat, err)
	}
	res, err := plan.Simulate(cfg, SimIters)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", p.app.Name, strat, err)
	}
	return res, nil
}

// result is simulate on the default machine, cached per strategy.
func (p *prepared) result(strat partition.Strategy) (*machine.Result, error) {
	if r, ok := p.plans[strat]; ok {
		return r, nil
	}
	res, err := p.simulate(strat, machine.DefaultConfig())
	if err != nil {
		return nil, err
	}
	p.plans[strat] = res
	return res, nil
}

func (p *prepared) speedup(strat partition.Strategy) (float64, error) {
	base, err := p.result(partition.StratSequential)
	if err != nil {
		return 0, err
	}
	r, err := p.result(strat)
	if err != nil {
		return 0, err
	}
	return r.Speedup(base), nil
}

// suiteCache prepares all 12 benchmarks once per process.
var suiteCache []*prepared

// suite returns the prepared benchmark suite.
func suite() ([]*prepared, error) {
	if suiteCache != nil {
		return suiteCache, nil
	}
	for _, app := range apps.Suite() {
		p, err := prepare(app)
		if err != nil {
			return nil, err
		}
		suiteCache = append(suiteCache, p)
	}
	return suiteCache, nil
}

// GeoMean computes the geometric mean of positive values.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// CharRow is one line of the benchmark characteristics table (E1).
type CharRow struct {
	Name            string
	Filters         int
	Peeking         int
	Stateful        int
	ShortestPath    int
	LongestPath     int
	CompComm        float64
	StatefulWorkPct float64
}

// BenchChar computes the E1 table, sorted (as in the paper) by ascending
// stateful work.
func BenchChar() ([]CharRow, error) {
	ps, err := suite()
	if err != nil {
		return nil, err
	}
	var rows []CharRow
	for _, p := range ps {
		st, err := p.graph.ComputeStats()
		if err != nil {
			return nil, err
		}
		rows = append(rows, CharRow{
			Name:            p.app.Name,
			Filters:         st.Filters,
			Peeking:         st.Peeking,
			Stateful:        st.Stateful,
			ShortestPath:    st.ShortestPath,
			LongestPath:     st.LongestPath,
			CompComm:        compComm(p.graph, p.sched),
			StatefulWorkPct: 100 * statefulWork(p.graph, p.sched),
		})
	}
	// Stable sort by stateful work (ascending), preserving suite order for
	// ties — mirroring the paper's table ordering.
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && rows[j].StatefulWorkPct < rows[j-1].StatefulWorkPct; j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
	return rows, nil
}

// compComm is the static computation-to-communication ratio: estimated
// cycles per steady iteration over items communicated per steady iteration.
func compComm(g *ir.Graph, s *sched.Schedule) float64 {
	var work, items int64
	for _, w := range partition.SteadyWork(g, s) {
		work += w
	}
	for _, e := range g.Edges {
		items += int64(s.ItemsPerSteady(e))
	}
	if items == 0 {
		return 0
	}
	return float64(work) / float64(items)
}

// statefulWork is the fraction of filter work done by stateful filters
// (the paper's final benchmark-table column); splitters, joiners and file
// I/O are left out.
func statefulWork(g *ir.Graph, s *sched.Schedule) float64 {
	work := partition.SteadyWork(g, s)
	var total, stateful int64
	for _, n := range g.Nodes {
		if n.Kind != ir.NodeFilter || n.IsSource() || n.IsSink() {
			continue
		}
		total += work[n.ID]
		if n.IsStateful() {
			stateful += work[n.ID]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(stateful) / float64(total)
}

// SpeedupRow is one benchmark's speedups over single-core for E2/E3/E4.
type SpeedupRow struct {
	Name   string
	Values map[partition.Strategy]float64
}

// Speedups computes per-benchmark speedups over the sequential baseline
// for the given strategies.
func Speedups(strats ...partition.Strategy) ([]SpeedupRow, map[partition.Strategy]float64, error) {
	ps, err := suite()
	if err != nil {
		return nil, nil, err
	}
	var rows []SpeedupRow
	acc := map[partition.Strategy][]float64{}
	for _, p := range ps {
		row := SpeedupRow{Name: p.app.Name, Values: map[partition.Strategy]float64{}}
		for _, s := range strats {
			sp, err := p.speedup(s)
			if err != nil {
				return nil, nil, err
			}
			row.Values[s] = sp
			acc[s] = append(acc[s], sp)
		}
		rows = append(rows, row)
	}
	means := map[partition.Strategy]float64{}
	for s, xs := range acc {
		means[s] = GeoMean(xs)
	}
	return rows, means, nil
}

// ThruputRow is one benchmark's combined-technique utilization and MFLOPS
// (E5).
type ThruputRow struct {
	Name        string
	Utilization float64
	MFLOPS      float64
}

// Throughput computes the E5 table.
func Throughput() ([]ThruputRow, error) {
	ps, err := suite()
	if err != nil {
		return nil, err
	}
	var rows []ThruputRow
	for _, p := range ps {
		res, err := p.result(partition.StratCombined)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ThruputRow{
			Name:        p.app.Name,
			Utilization: res.Utilization,
			MFLOPS:      res.MFLOPS,
		})
	}
	return rows, nil
}

// VsSpaceRow compares the combined technique against the space-multiplexed
// prior work (E6): values > 1 mean the combined technique is faster.
type VsSpaceRow struct {
	Name         string
	TaskData     float64 // task+data normalized to space
	Combined     float64 // task+data+swp normalized to space
	SpaceSpeedup float64 // space over sequential, for reference
}

// VsSpace computes the E6 comparison.
func VsSpace() ([]VsSpaceRow, float64, error) {
	ps, err := suite()
	if err != nil {
		return nil, 0, err
	}
	var rows []VsSpaceRow
	var ratios []float64
	for _, p := range ps {
		space, err := p.result(partition.StratSpace)
		if err != nil {
			return nil, 0, err
		}
		td, err := p.result(partition.StratCoarseData)
		if err != nil {
			return nil, 0, err
		}
		comb, err := p.result(partition.StratCombined)
		if err != nil {
			return nil, 0, err
		}
		seq, err := p.result(partition.StratSequential)
		if err != nil {
			return nil, 0, err
		}
		rows = append(rows, VsSpaceRow{
			Name:         p.app.Name,
			TaskData:     td.Speedup(space),
			Combined:     comb.Speedup(space),
			SpaceSpeedup: space.Speedup(seq),
		})
		ratios = append(ratios, comb.Speedup(space))
	}
	return rows, GeoMean(ratios), nil
}

// timed is one side of a paired measurement: an engine past its init
// schedule, the sink items one steady iteration delivers, and the steady
// iterations it runs per call, which grow while it is timed.
type timed struct {
	e       *exec.Engine
	perIter int64
	chunk   int
}

func newTimed(prog *ir.Program) (*timed, error) {
	e, err := exec.New(prog)
	if err != nil {
		return nil, err
	}
	if err := e.RunInit(); err != nil {
		return nil, err
	}
	t := &timed{e: e, chunk: 4}
	for _, n := range e.G.Nodes {
		if n.IsSink() {
			t.perIter += int64(e.Sch.Reps[n.ID] * n.TotalPop())
		}
	}
	if t.perIter == 0 {
		return nil, fmt.Errorf("%s: no sink items per steady iteration", prog.Name)
	}
	return t, nil
}

// run steps the engine for at least d and returns the items its sinks
// consumed per wall-clock second.
func (t *timed) run(d time.Duration) (float64, error) {
	var iters int64
	start := time.Now()
	for time.Since(start) < d {
		if err := t.e.RunSteady(t.chunk); err != nil {
			return 0, err
		}
		iters += int64(t.chunk)
		if t.chunk < 1024 {
			t.chunk *= 2
		}
	}
	return float64(iters*t.perIter) / time.Since(start).Seconds(), nil
}

// pairSlices is how many slices of MeasureDur a paired measurement takes.
const pairSlices = 5

// measurePair times a against b on the sequential engine's default (VM)
// backend, interleaved: both engines are built and past init first, then
// the two run by turns over pairSlices slices of MeasureDur/pairSlices
// each, the side that goes first alternating, so that drift on a noisy
// machine lands on both, and each slice starts on a collected heap. It
// returns the median of the per-slice rate ratios a/b and each side's
// median rate in sink items per second.
func measurePair(a, b *ir.Program) (ratio, rateA, rateB float64, err error) {
	sides := [2]*timed{}
	for i, p := range [2]*ir.Program{a, b} {
		if sides[i], err = newTimed(p); err != nil {
			return 0, 0, 0, err
		}
	}
	slice := MeasureDur / pairSlices
	var rates [2][]float64
	var ratios []float64
	for s := 0; s < pairSlices; s++ {
		var r [2]float64
		for k := 0; k < 2; k++ {
			i := (s + k) % 2
			// A clean heap for every slice: a collection one side's garbage
			// starts must not land in the other side's slice.
			runtime.GC()
			if r[i], err = sides[i].run(slice); err != nil {
				return 0, 0, 0, err
			}
			rates[i] = append(rates[i], r[i])
		}
		ratios = append(ratios, r[0]/r[1])
	}
	return median(ratios), median(rates[0]), median(rates[1]), nil
}

func median(xs []float64) float64 {
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// LinearRow reports one linear-suite benchmark (E7).
type LinearRow struct {
	Name          string
	LinearFilters int
	Combined      int
	Speedup       float64 // optimised over as written
}

// MeasureDur is the default wall-clock measurement window per
// configuration in the execution benchmarks (E7/E8).
var MeasureDur = 150 * time.Millisecond

// LinearBench measures E7: sequential-engine throughput (default VM
// backend) of each linear benchmark after linear optimisation, over the
// program as written, timed by measurePair.
func LinearBench() ([]LinearRow, float64, error) {
	var rows []LinearRow
	var speedups []float64
	for _, app := range apps.LinearSuite() {
		opt := app.Build()
		var rep linear.Report
		top, err := linear.Optimize(opt.Top, linear.Options{Combine: true}, &rep)
		if err != nil {
			return nil, 0, err
		}
		opt.Top = top
		speedup, _, _, err := measurePair(opt, app.Build())
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", app.Name, err)
		}
		rows = append(rows, LinearRow{
			Name:          app.Name,
			LinearFilters: rep.LinearFilters,
			Combined:      rep.Combined,
			Speedup:       speedup,
		})
		speedups = append(speedups, speedup)
	}
	return rows, GeoMean(speedups), nil
}

// TeleportResult reports E8.
type TeleportResult struct {
	TeleportRate float64 // audio samples per second, teleport messaging
	ManualRate   float64 // audio samples per second, manual embedding
	Improvement  float64 // (teleport/manual - 1) * 100 percent
}

// TeleportBench measures E8: the frequency-hopping radio with teleport
// messaging versus manually-embedded control tokens, timed by
// measurePair.
func TeleportBench() (*TeleportResult, error) {
	ratio, tele, man, err := measurePair(apps.FreqHoppingRadio(true), apps.FreqHoppingRadio(false))
	if err != nil {
		return nil, err
	}
	return &TeleportResult{
		TeleportRate: tele,
		ManualRate:   man,
		Improvement:  (ratio - 1) * 100,
	}, nil
}
