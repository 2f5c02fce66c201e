package partition

import (
	"testing"

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

func buildP(t *testing.T, s ir.Stream) *PGraph {
	t.Helper()
	g, err := ir.Flatten(&ir.Program{Name: "t", Top: s})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sched.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(g, sc)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func simulate(t *testing.T, plan *Plan) *machine.Result {
	t.Helper()
	res, err := plan.Simulate(machine.DefaultConfig(), 24)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// statelessChain is an 8-filter stateless pipeline with a light source and
// sink.
func statelessChain(t *testing.T) *PGraph {
	children := []ir.Stream{heavyFilter("src", 4, 0, 0, 1)}
	for i := 0; i < 8; i++ {
		children = append(children, heavyFilter(name(i), 400, 1, 1, 1))
	}
	children = append(children, heavyFilter("snk", 4, 1, 1, 0))
	return buildP(t, ir.Pipe("chain", children...))
}

func name(i int) string { return string(rune('A' + i)) }

func TestSequentialVsCoarseData(t *testing.T) {
	p := statelessChain(t)
	seq, err := p.Map(StratSequential, 16)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := p.Map(StratCoarseData, 16)
	if err != nil {
		t.Fatal(err)
	}
	seqRes := simulate(t, seq)
	cdRes := simulate(t, cd)
	sp := cdRes.Speedup(seqRes)
	if sp < 6 {
		t.Errorf("coarse data parallelism speedup = %.2f, want >= 6 on a stateless chain", sp)
	}
}

func TestTaskParallelismPoorOnChain(t *testing.T) {
	p := statelessChain(t)
	seq, _ := p.Map(StratSequential, 16)
	task, err := p.Map(StratTask, 16)
	if err != nil {
		t.Fatal(err)
	}
	sp := simulate(t, task).Speedup(simulate(t, seq))
	if sp > 1.5 {
		t.Errorf("task parallelism on a pure chain should not speed up, got %.2f", sp)
	}
}

func TestTaskParallelismGoodOnWideSplitJoin(t *testing.T) {
	var branches []ir.Stream
	for i := 0; i < 16; i++ {
		branches = append(branches, heavyFilter("b"+name(i), 500, 1, 1, 1))
	}
	sj := ir.SJ("wide", ir.RoundRobin(), ir.RoundRobin(), branches...)
	p := buildP(t, ir.Pipe("main",
		heavyFilter("src", 2, 0, 0, 16), sj, heavyFilter("snk", 2, 16, 16, 0)))
	seq, _ := p.Map(StratSequential, 16)
	task, err := p.Map(StratTask, 16)
	if err != nil {
		t.Fatal(err)
	}
	sp := simulate(t, task).Speedup(simulate(t, seq))
	if sp < 6 {
		t.Errorf("task parallelism on a 16-wide splitjoin speedup = %.2f, want >= 6", sp)
	}
}

func TestStatefulNotFissed(t *testing.T) {
	p := buildP(t, ir.Pipe("main",
		heavyFilter("src", 2, 0, 0, 1),
		statefulFilter("state", 800),
		heavyFilter("snk", 2, 1, 1, 0)))
	cd, err := p.Map(StratCoarseData, 16)
	if err != nil {
		t.Fatal(err)
	}
	// The stateful node must survive unreplicated.
	found := 0
	for _, n := range cd.Graph.Nodes {
		if n.Stateful {
			found++
		}
	}
	if found != 1 {
		t.Errorf("expected exactly 1 stateful node after mapping, got %d", found)
	}
	// And data parallelism cannot beat ~1x on a stateful bottleneck.
	seq, _ := p.Map(StratSequential, 16)
	sp := simulate(t, cd).Speedup(simulate(t, seq))
	if sp > 2.0 {
		t.Errorf("stateful bottleneck speedup = %.2f, should stay near 1", sp)
	}
}

func TestSWPBalancesStatefulPipeline(t *testing.T) {
	// Pipeline of equally-heavy stateful filters: data parallelism is
	// paralyzed but software pipelining spreads the stages across tiles.
	children := []ir.Stream{heavyFilter("src", 2, 0, 0, 1)}
	for i := 0; i < 8; i++ {
		children = append(children, statefulFilter("s"+name(i), 500))
	}
	children = append(children, heavyFilter("snk", 2, 1, 1, 0))
	p := buildP(t, ir.Pipe("main", children...))
	seq, _ := p.Map(StratSequential, 16)
	seqRes := simulate(t, seq)
	cd, _ := p.Map(StratCoarseData, 16)
	swp, err := p.Map(StratSWP, 16)
	if err != nil {
		t.Fatal(err)
	}
	cdSp := simulate(t, cd).Speedup(seqRes)
	swpSp := simulate(t, swp).Speedup(seqRes)
	if swpSp < 4 {
		t.Errorf("SWP speedup on stateful pipeline = %.2f, want >= 4", swpSp)
	}
	if swpSp < cdSp {
		t.Errorf("SWP (%.2f) should beat data parallelism (%.2f) on all-stateful pipelines", swpSp, cdSp)
	}
}

func TestFeedbackLoopCollapsed(t *testing.T) {
	body := heavyFilter("body", 100, 2, 2, 2)
	fl := &ir.FeedbackLoop{
		Name:  "loop",
		Join:  ir.RoundRobin(1, 1),
		Body:  body,
		Split: ir.RoundRobin(1, 1),
		Delay: 1,
	}
	p := buildP(t, ir.Pipe("main",
		heavyFilter("src", 2, 0, 0, 1), fl, heavyFilter("snk", 2, 1, 1, 0)))
	// The loop must be one stateful node; the emitted graph is acyclic.
	plan, err := p.Map(StratSequential, 16)
	if err != nil {
		t.Fatal(err)
	}
	stateful := 0
	for _, n := range plan.Graph.Nodes {
		if n.Stateful {
			stateful++
		}
	}
	if stateful != 1 {
		t.Errorf("expected collapsed loop node, got %d stateful nodes", stateful)
	}
}

func TestPeekingFissionPaysDuplication(t *testing.T) {
	// A peeking FIR can be fissed, but replicas receive duplicated window
	// margins: total traffic grows.
	p := buildP(t, ir.Pipe("main",
		heavyFilter("src", 2, 0, 0, 1),
		heavyFilter("fir", 600, 32, 1, 1),
		heavyFilter("snk", 2, 1, 1, 0)))
	fine, err := p.Map(StratFineData, 16)
	if err != nil {
		t.Fatal(err)
	}
	var traffic int64
	for _, e := range fine.Graph.Edges {
		traffic += e.Items
	}
	var base int64
	seq, _ := p.Map(StratSequential, 16)
	for _, e := range seq.Graph.Edges {
		base += e.Items
	}
	if traffic <= base {
		t.Errorf("fissed peeking traffic %d should exceed base %d", traffic, base)
	}
}

func TestCombinedAtLeastAsGoodAsData(t *testing.T) {
	p := statelessChain(t)
	seq, _ := p.Map(StratSequential, 16)
	seqRes := simulate(t, seq)
	cd, _ := p.Map(StratCoarseData, 16)
	comb, err := p.Map(StratCombined, 16)
	if err != nil {
		t.Fatal(err)
	}
	cdSp := simulate(t, cd).Speedup(seqRes)
	combSp := simulate(t, comb).Speedup(seqRes)
	if combSp < cdSp*0.8 {
		t.Errorf("combined (%.2f) should not badly lose to data alone (%.2f)", combSp, cdSp)
	}
}

func TestSpaceMultiplexedFusesToTiles(t *testing.T) {
	children := []ir.Stream{heavyFilter("src", 2, 0, 0, 1)}
	for i := 0; i < 24; i++ {
		children = append(children, heavyFilter("f"+name(i%20)+name(i/20), 100+i, 1, 1, 1))
	}
	children = append(children, heavyFilter("snk", 2, 1, 1, 0))
	p := buildP(t, ir.Pipe("main", children...))
	plan, err := p.Map(StratSpace, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Graph.Nodes) > 16 {
		t.Errorf("space mapping has %d nodes, want <= 16", len(plan.Graph.Nodes))
	}
	if plan.Mapping.Mode != machine.ModePipelined || plan.Mapping.Comm != machine.CommNoC {
		t.Error("space mapping should be pipelined over the NoC")
	}
}

// TestSpaceMultiplexedFusesWideSplitJoin: a split-join wider than the
// machine cannot be fused along chains alone; sibling branches merge
// (lightest pair first) until the graph fits, and it still simulates.
func TestSpaceMultiplexedFusesWideSplitJoin(t *testing.T) {
	var branches []ir.Stream
	for i := 0; i < 12; i++ {
		branches = append(branches, heavyFilter("b"+name(i), 100+10*i, 1, 1, 1))
	}
	p := buildP(t, ir.Pipe("main",
		heavyFilter("src", 2, 0, 0, 1),
		ir.SJ("wide", ir.Duplicate(), ir.RoundRobin(), branches...),
		heavyFilter("snk", 2, 12, 12, 0)))
	const tiles = 4
	plan, err := p.Map(StratSpace, tiles)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(plan.Graph.Nodes); n > tiles {
		t.Errorf("space mapping has %d nodes, want <= %d", n, tiles)
	}
	if res := simulate(t, plan); res.CyclesPerIter <= 0 {
		t.Errorf("fused mapping simulates to %v cycles per iteration", res.CyclesPerIter)
	}
}

func TestStatsHelpers(t *testing.T) {
	p := buildP(t, ir.Pipe("main",
		heavyFilter("src", 2, 0, 0, 1),
		statefulFilter("state", 400),
		heavyFilter("plain", 400, 1, 1, 1),
		heavyFilter("snk", 2, 1, 1, 0)))
	sw := p.StatefulWork()
	if sw <= 0 || sw >= 1 {
		t.Errorf("stateful work fraction = %v, want in (0,1)", sw)
	}
	if p.CompCommRatio() <= 0 {
		t.Errorf("comp/comm ratio should be positive")
	}
}

// TestStrategyModes pins each strategy's execution discipline and
// communication substrate.
func TestStrategyModes(t *testing.T) {
	p := statelessChain(t)
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
		plan, err := p.Map(c.strat, 16)
		if err != nil {
			t.Fatalf("%s: %v", c.strat, err)
		}
		if plan.Mapping.Mode != c.mode || plan.Mapping.Comm != c.comm {
			t.Errorf("%s: mode=%v comm=%v, want %v/%v",
				c.strat, plan.Mapping.Mode, plan.Mapping.Comm, c.mode, c.comm)
		}
	}
	if _, err := p.Map(Strategy("bogus"), 16); err == nil {
		t.Error("unknown strategy should error")
	}
}

// TestSequentialUsesOneTile: the baseline never spreads.
func TestSequentialUsesOneTile(t *testing.T) {
	p := statelessChain(t)
	plan, err := p.Map(StratSequential, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, tile := range plan.Mapping.Tile {
		if tile != 0 {
			t.Fatalf("sequential mapping uses tile %d", tile)
		}
	}
}
