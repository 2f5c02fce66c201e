package partition

import (
	"fmt"
	"slices"
	"testing"

	"streamit/internal/apps"
	"streamit/internal/ir"
	"streamit/internal/machine"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
)

// heavyFilter builds a filter with a tunable amount of per-firing work.
func heavyFilter(name string, loops int, peek, pop, push int) *ir.Filter {
	b := wfunc.NewKernel(name, peek, pop, push)
	i := b.Local("i")
	s := b.Local("s")
	var body []wfunc.Stmt
	body = append(body, wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(loops),
		wfunc.Set(s, wfunc.AddX(s, wfunc.MulX(i, wfunc.C(1.0001))))))
	for j := 0; j < pop; j++ {
		body = append(body, wfunc.Pop1())
	}
	for j := 0; j < push; j++ {
		body = append(body, wfunc.Push1(s))
	}
	b.WorkBody(body...)
	in, out := ir.TypeFloat, ir.TypeFloat
	if pop == 0 && peek == 0 {
		in = ir.TypeVoid
	}
	if push == 0 {
		out = ir.TypeVoid
	}
	return &ir.Filter{Kernel: b.Build(), In: in, Out: out}
}

func statefulFilter(name string, loops int) *ir.Filter {
	b := wfunc.NewKernel(name, 1, 1, 1)
	f := b.Field("acc", 0)
	i := b.Local("i")
	b.WorkBody(
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(loops),
			wfunc.SetF(f, wfunc.AddX(f, wfunc.C(0.5)))),
		wfunc.Push1(wfunc.AddX(wfunc.PopE(), f)),
	)
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
}

// compile flattens and schedules prog.
func compile(t *testing.T, prog *ir.Program) (*ir.Graph, *sched.Schedule) {
	t.Helper()
	g, err := ir.Flatten(prog)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	return g, s
}

// lower lowers the program with top-level stream top under strat onto tiles
// tiles.
func lower(t *testing.T, top ir.Stream, strat Strategy, tiles int) *Plan {
	t.Helper()
	prog := &ir.Program{Name: "t", Top: top}
	g, s := compile(t, prog)
	plan, err := Lower(prog, g, s, strat, tiles)
	if err != nil {
		t.Fatalf("%s: %v", strat, err)
	}
	return plan
}

func simulate(t *testing.T, plan *Plan) *machine.Result {
	t.Helper()
	res, err := plan.Simulate(machine.DefaultConfig(), 24)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// speedup is strat's simulated speedup over the single core on 16 tiles.
func speedup(t *testing.T, top func() ir.Stream, strat Strategy) float64 {
	t.Helper()
	seq := simulate(t, lower(t, top(), StratSequential, 16))
	return simulate(t, lower(t, top(), strat, 16)).Speedup(seq)
}

// statelessChain is an 8-filter stateless pipeline with a light source and
// sink.
func statelessChain() ir.Stream {
	children := []ir.Stream{heavyFilter("src", 4, 0, 0, 1)}
	for i := 0; i < 8; i++ {
		children = append(children, heavyFilter(name(i), 400, 1, 1, 1))
	}
	children = append(children, heavyFilter("snk", 4, 1, 1, 0))
	return ir.Pipe("chain", children...)
}

func name(i int) string { return string(rune('A' + i)) }

func TestSequentialVsCoarseData(t *testing.T) {
	if sp := speedup(t, statelessChain, StratCoarseData); sp < 6 {
		t.Errorf("coarse data parallelism speedup = %.2f, want >= 6 on a stateless chain", sp)
	}
}

func TestTaskParallelismPoorOnChain(t *testing.T) {
	if sp := speedup(t, statelessChain, StratTask); sp > 1.5 {
		t.Errorf("task parallelism on a pure chain should not speed up, got %.2f", sp)
	}
}

func TestTaskParallelismGoodOnWideSplitJoin(t *testing.T) {
	wide := func() ir.Stream {
		var branches []ir.Stream
		for i := 0; i < 16; i++ {
			branches = append(branches, heavyFilter("b"+name(i), 500, 1, 1, 1))
		}
		sj := ir.SJ("wide", ir.RoundRobin(), ir.RoundRobin(), branches...)
		return ir.Pipe("main", heavyFilter("src", 2, 0, 0, 16), sj, heavyFilter("snk", 2, 16, 16, 0))
	}
	if sp := speedup(t, wide, StratTask); sp < 6 {
		t.Errorf("task parallelism on a 16-wide splitjoin speedup = %.2f, want >= 6", sp)
	}
}

func statefulNodes(plan *Plan) int {
	n := 0
	for _, wn := range plan.Graph.Nodes {
		if wn.Stateful {
			n++
		}
	}
	return n
}

func TestStatefulNotFissed(t *testing.T) {
	top := func() ir.Stream {
		return ir.Pipe("main",
			heavyFilter("src", 2, 0, 0, 1),
			statefulFilter("state", 800),
			heavyFilter("snk", 2, 1, 1, 0))
	}
	// The stateful node must survive unreplicated.
	if n := statefulNodes(lower(t, top(), StratCoarseData, 16)); n != 1 {
		t.Errorf("expected exactly 1 stateful node after mapping, got %d", n)
	}
	// And data parallelism cannot beat ~1x on a stateful bottleneck.
	if sp := speedup(t, top, StratCoarseData); sp > 2.0 {
		t.Errorf("stateful bottleneck speedup = %.2f, should stay near 1", sp)
	}
}

func TestSWPBalancesStatefulPipeline(t *testing.T) {
	// Pipeline of equally-heavy stateful filters: data parallelism is
	// paralyzed but software pipelining spreads the stages across tiles.
	top := func() ir.Stream {
		children := []ir.Stream{heavyFilter("src", 2, 0, 0, 1)}
		for i := 0; i < 8; i++ {
			children = append(children, statefulFilter("s"+name(i), 500))
		}
		children = append(children, heavyFilter("snk", 2, 1, 1, 0))
		return ir.Pipe("main", children...)
	}
	cdSp, swpSp := speedup(t, top, StratCoarseData), speedup(t, top, StratSWP)
	if swpSp < 4 {
		t.Errorf("SWP speedup on stateful pipeline = %.2f, want >= 4", swpSp)
	}
	if swpSp < cdSp {
		t.Errorf("SWP (%.2f) should beat data parallelism (%.2f) on all-stateful pipelines", swpSp, cdSp)
	}
}

// TestFeedbackLoopCollapsed: under every strategy a feedback loop lowers to
// one contracted stateful node holding all of the loop's nodes, so the
// simulated graph is acyclic and simulates.
func TestFeedbackLoopCollapsed(t *testing.T) {
	top := func() ir.Stream {
		fl := &ir.FeedbackLoop{
			Name:  "loop",
			Join:  ir.RoundRobin(1, 1),
			Body:  heavyFilter("body", 100, 2, 2, 2),
			Split: ir.RoundRobin(1, 1),
			Delay: 1,
		}
		return ir.Pipe("main", heavyFilter("src", 2, 0, 0, 1), fl, heavyFilter("snk", 2, 1, 1, 0))
	}
	for _, strat := range []Strategy{StratSequential, StratTask, StratFineData, StratCoarseData, StratSWP, StratCombined, StratSpace} {
		plan := lower(t, top(), strat, 16)
		if n := statefulNodes(plan); n != 1 {
			t.Errorf("%s: expected one contracted loop node, got %d stateful nodes", strat, n)
		}
		for u, wn := range plan.Graph.Nodes {
			if wn.Stateful && len(plan.members[u]) != 3 {
				t.Errorf("%s: loop node %s stands for %d nodes, want joiner, body and splitter", strat, wn.Name, len(plan.members[u]))
			}
		}
		if res := simulate(t, plan); res.CyclesPerIter <= 0 {
			t.Errorf("%s: loop simulates to %v cycles per iteration", strat, res.CyclesPerIter)
		}
	}
}

func traffic(plan *Plan) int64 {
	var items int64
	for _, e := range plan.Graph.Edges {
		items += e.Items
	}
	return items
}

func TestPeekingFissionPaysDuplication(t *testing.T) {
	// A peeking FIR can be fissed, but its replicas sit behind a duplicate
	// splitter: per original steady iteration, total traffic grows.
	top := func() ir.Stream {
		return ir.Pipe("main",
			heavyFilter("src", 2, 0, 0, 1),
			heavyFilter("fir", 600, 32, 1, 1),
			heavyFilter("snk", 2, 1, 1, 0))
	}
	fine := lower(t, top(), StratFineData, 16)
	base := traffic(lower(t, top(), StratSequential, 16))
	if got := traffic(fine) / int64(fine.Scale); got <= base {
		t.Errorf("fissed peeking traffic %d per original iteration should exceed base %d", got, base)
	}
}

func TestCombinedAtLeastAsGoodAsData(t *testing.T) {
	cdSp, combSp := speedup(t, statelessChain, StratCoarseData), speedup(t, statelessChain, StratCombined)
	if combSp < cdSp*0.8 {
		t.Errorf("combined (%.2f) should not badly lose to data alone (%.2f)", combSp, cdSp)
	}
}

// checkSpace asserts the prior work's mapping: at most tiles tiles used,
// each holding one contiguous run of the topological order, pipelined over
// the NoC.
func checkSpace(t *testing.T, plan *Plan, tiles int) {
	t.Helper()
	if plan.Mapping.Mode != machine.ModePipelined || plan.Mapping.Comm != machine.CommNoC {
		t.Error("space mapping should be pipelined over the NoC")
	}
	order, err := plan.Graph.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	var used []int
	for _, n := range order {
		tile := plan.Mapping.Tile[n.ID]
		if len(used) == 0 || used[len(used)-1] != tile {
			if slices.Contains(used, tile) {
				t.Fatalf("tile %d holds two separate runs of the topological order", tile)
			}
			used = append(used, tile)
		}
	}
	if len(used) > tiles {
		t.Errorf("space mapping uses %d tiles, want <= %d", len(used), tiles)
	}
	if res := simulate(t, plan); res.CyclesPerIter <= 0 {
		t.Errorf("space mapping simulates to %v cycles per iteration", res.CyclesPerIter)
	}
}

func TestSpaceMultiplexedFusesToTiles(t *testing.T) {
	children := []ir.Stream{heavyFilter("src", 2, 0, 0, 1)}
	for i := 0; i < 24; i++ {
		children = append(children, heavyFilter("f"+name(i%20)+name(i/20), 100+i, 1, 1, 1))
	}
	children = append(children, heavyFilter("snk", 2, 1, 1, 0))
	checkSpace(t, lower(t, ir.Pipe("main", children...), StratSpace, 16), 16)
}

// TestSpaceMultiplexedFusesWideSplitJoin: a split-join wider than the
// machine still gets one region per tile, and it simulates.
func TestSpaceMultiplexedFusesWideSplitJoin(t *testing.T) {
	var branches []ir.Stream
	for i := 0; i < 12; i++ {
		branches = append(branches, heavyFilter("b"+name(i), 100+10*i, 1, 1, 1))
	}
	top := ir.Pipe("main",
		heavyFilter("src", 2, 0, 0, 1),
		ir.SJ("wide", ir.Duplicate(), ir.RoundRobin(), branches...),
		heavyFilter("snk", 2, 12, 12, 0))
	checkSpace(t, lower(t, top, StratSpace, 4), 4)
}

// TestStrategyModes pins each strategy's execution discipline and
// communication substrate.
func TestStrategyModes(t *testing.T) {
	cases := []struct {
		strat Strategy
		mode  machine.Mode
		comm  machine.CommKind
	}{
		{StratSequential, machine.ModePipelined, machine.CommNoC},
		{StratTask, machine.ModeBarriered, machine.CommDRAM},
		{StratFineData, machine.ModeBarriered, machine.CommDRAM},
		{StratCoarseData, machine.ModeBarriered, machine.CommDRAM},
		{StratSWP, machine.ModePipelined, machine.CommDRAM},
		{StratCombined, machine.ModePipelined, machine.CommDRAM},
		{StratSpace, machine.ModePipelined, machine.CommNoC},
	}
	for _, c := range cases {
		plan := lower(t, statelessChain(), c.strat, 16)
		if plan.Mapping.Mode != c.mode || plan.Mapping.Comm != c.comm {
			t.Errorf("%s: mode=%v comm=%v, want %v/%v",
				c.strat, plan.Mapping.Mode, plan.Mapping.Comm, c.mode, c.comm)
		}
	}
	prog := &ir.Program{Name: "t", Top: statelessChain()}
	g, s := compile(t, prog)
	if _, err := Lower(prog, g, s, Strategy("bogus"), 16); err == nil {
		t.Error("unknown strategy should error")
	}
}

// TestSequentialUsesOneTile: the baseline never spreads.
func TestSequentialUsesOneTile(t *testing.T) {
	for _, tile := range lower(t, statelessChain(), StratSequential, 16).Mapping.Tile {
		if tile != 0 {
			t.Fatalf("sequential mapping uses tile %d", tile)
		}
	}
}

// TestLowerPlacesLikeTheEngines is the one-partitioner contract: the
// simulator runs every node of a plan on the tile the mapped engine runs it
// on. For the twelve apps, every executable strategy and 2 and 16 workers,
// the lowering's per-tile node sets, expanded through the stage-cluster
// contraction, equal plan.Assign's per-worker node sets.
func TestLowerPlacesLikeTheEngines(t *testing.T) {
	for _, app := range apps.Suite() {
		for _, strat := range []Strategy{StratTask, StratFineData, StratCoarseData, StratSWP, StratCombined} {
			for _, workers := range []int{2, 16} {
				what := fmt.Sprintf("%s under %s on %d", app.Name, strat, workers)
				prog := app.Build()
				g, s := compile(t, prog)
				low, err := Lower(prog, g, s, strat, workers)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				plan, g2, s2 := buildPlan(t, prog, strat, workers)
				want := make([][]int, workers)
				for id, w := range plan.Assign(g2, s2) {
					want[w] = append(want[w], id)
				}
				got := make([][]int, workers)
				for u, ids := range low.members {
					tile := low.Mapping.Tile[u]
					got[tile] = append(got[tile], ids...)
				}
				for w := range got {
					slices.Sort(got[w])
					if !slices.Equal(got[w], want[w]) {
						t.Errorf("%s: tile %d runs nodes %v, worker %d runs %v", what, w, got[w], w, want[w])
					}
				}
			}
		}
	}
}
