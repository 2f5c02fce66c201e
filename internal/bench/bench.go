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

// measureRate runs a program for at least minDur and returns output items
// per second (items consumed by the graph's sinks, per wall-clock second)
// on the default (VM) backend.
func measureRate(prog *ir.Program, minDur time.Duration) (float64, error) {
	e, err := exec.New(prog)
	if err != nil {
		return 0, err
	}
	if err := e.RunInit(); err != nil {
		return 0, err
	}
	// Items delivered to sinks per steady iteration.
	var perIter int64
	for _, n := range e.G.Nodes {
		if n.IsSink() {
			perIter += int64(e.Sch.Reps[n.ID] * n.TotalPop())
		}
	}
	if perIter == 0 {
		return 0, fmt.Errorf("%s: no sink items per steady iteration", prog.Name)
	}
	var iters int64
	start := time.Now()
	chunk := 4
	for time.Since(start) < minDur {
		if err := e.RunSteady(chunk); err != nil {
			return 0, err
		}
		iters += int64(chunk)
		if chunk < 1024 {
			chunk *= 2
		}
	}
	sec := time.Since(start).Seconds()
	return float64(iters*perIter) / sec, nil
}

// LinearRow reports one linear-suite benchmark (E7).
type LinearRow struct {
	Name          string
	LinearFilters int
	Combined      int
	FreqKernels   int
	SpeedupComb   float64 // combination only
	SpeedupFull   float64 // combination + frequency translation
}

// MeasureDur is the default wall-clock measurement window per
// configuration in the execution benchmarks (E7/E8).
var MeasureDur = 150 * time.Millisecond

// LinearBench measures E7: sequential-engine throughput (default VM
// backend) of each linear benchmark unoptimized, with linear combination,
// and with combination plus frequency translation.
func LinearBench() ([]LinearRow, float64, error) {
	var rows []LinearRow
	var fulls []float64
	for _, app := range apps.LinearSuite() {
		base, err := measureRate(app.Build(), MeasureDur)
		if err != nil {
			return nil, 0, fmt.Errorf("%s base: %w", app.Name, err)
		}
		combProg := app.Build()
		var repC linear.Report
		top, err := linear.Optimize(combProg.Top, linear.Options{Combine: true}, &repC)
		if err != nil {
			return nil, 0, err
		}
		combProg.Top = top
		comb, err := measureRate(combProg, MeasureDur)
		if err != nil {
			return nil, 0, fmt.Errorf("%s combined: %w", app.Name, err)
		}
		fullProg := app.Build()
		var repF linear.Report
		top, err = linear.Optimize(fullProg.Top, linear.Options{Combine: true, Frequency: true, Block: 64}, &repF)
		if err != nil {
			return nil, 0, err
		}
		fullProg.Top = top
		full, err := measureRate(fullProg, MeasureDur)
		if err != nil {
			return nil, 0, fmt.Errorf("%s full: %w", app.Name, err)
		}
		row := LinearRow{
			Name:          app.Name,
			LinearFilters: repF.LinearFilters,
			Combined:      repF.Combined,
			FreqKernels:   repF.FreqTranslated,
			SpeedupComb:   comb / base,
			SpeedupFull:   full / base,
		}
		rows = append(rows, row)
		fulls = append(fulls, row.SpeedupFull)
	}
	return rows, GeoMean(fulls), nil
}

// TeleportResult reports E8.
type TeleportResult struct {
	TeleportRate float64 // audio samples per second, teleport messaging
	ManualRate   float64 // audio samples per second, manual embedding
	Improvement  float64 // (teleport/manual - 1) * 100 percent
}

// TeleportBench measures E8: the frequency-hopping radio with teleport
// messaging versus manually-embedded control tokens.
func TeleportBench() (*TeleportResult, error) {
	tele, err := measureRate(apps.FreqHoppingRadio(true), MeasureDur)
	if err != nil {
		return nil, fmt.Errorf("teleport: %w", err)
	}
	man, err := measureRate(apps.FreqHoppingRadio(false), MeasureDur)
	if err != nil {
		return nil, fmt.Errorf("manual: %w", err)
	}
	return &TeleportResult{
		TeleportRate: tele,
		ManualRate:   man,
		Improvement:  (tele/man - 1) * 100,
	}, nil
}
