package sched

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"streamit/internal/apps"
	"streamit/internal/ir"
	"streamit/internal/lang"
	"streamit/internal/wfunc"
)

func filter(name string, peek, pop, push int) *ir.Filter {
	b := wfunc.NewKernel(name, peek, pop, push)
	var body []wfunc.Stmt
	for i := 0; i < pop; i++ {
		body = append(body, wfunc.Pop1())
	}
	for i := 0; i < push; i++ {
		body = append(body, wfunc.Push1(wfunc.C(0)))
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

func mustFlatten(t *testing.T, s ir.Stream) *ir.Graph {
	t.Helper()
	g, err := ir.Flatten(&ir.Program{Name: "t", Top: s})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSteadyRepsPipeline(t *testing.T) {
	// src ->(3) A: pop 2 push 3 -> B: pop 1 push 1 -> sink pop 2
	p := ir.Pipe("main",
		filter("src", 0, 0, 3),
		filter("A", 2, 2, 3),
		filter("B", 1, 1, 1),
		filter("snk", 2, 2, 0),
	)
	g := mustFlatten(t, p)
	reps, err := SteadyReps(g)
	if err != nil {
		t.Fatal(err)
	}
	// Balance: src*3 = A*2; A*3 = B*1; B*1 = snk*2.
	// Minimal: src=2, A=3, B=9, snk... B pushes 9, snk pops 2 -> no:
	// snk*2 = B*1 -> B must be even: src=4, A=6, B=18, snk=9.
	want := map[string]int{"src": 4, "A": 6, "B": 18, "snk": 9}
	for _, n := range g.Nodes {
		base := n.Filter.Kernel.Name
		if reps[n.ID] != want[base] {
			t.Errorf("reps[%s] = %d, want %d", base, reps[n.ID], want[base])
		}
	}
}

func TestSteadyRepsSplitJoin(t *testing.T) {
	sj := ir.SJ("sj", ir.RoundRobin(2, 1), ir.RoundRobin(1, 1),
		filter("a", 2, 2, 1), filter("b", 1, 1, 1))
	p := ir.Pipe("main", filter("src", 0, 0, 1), sj, filter("snk", 1, 1, 0))
	g := mustFlatten(t, p)
	reps, err := SteadyReps(g)
	if err != nil {
		t.Fatal(err)
	}
	// Splitter: pops 3, pushes 2|1 per firing. a fires 1x per split (2 in,
	// 1 out); b 1x. Joiner RR(1,1) pops 1+1 pushes 2. Balance gives
	// split=1, a=1, b=1, join=1, src=3, snk=2.
	for _, n := range g.Nodes {
		var want int
		switch {
		case n.Kind == ir.NodeSplitter, n.Kind == ir.NodeJoiner:
			want = 1
		case n.Filter.Kernel.Name == "src":
			want = 3
		case n.Filter.Kernel.Name == "snk":
			want = 2
		default:
			want = 1
		}
		if reps[n.ID] != want {
			t.Errorf("reps[%s] = %d, want %d", n.Name, reps[n.ID], want)
		}
	}
}

func TestInconsistentRatesDetected(t *testing.T) {
	// Branches of a splitjoin producing at mismatched rates: overflow.
	sj := ir.SJ("sj", ir.RoundRobin(1, 1), ir.RoundRobin(1, 1),
		filter("a", 1, 1, 2), filter("b", 1, 1, 1))
	p := ir.Pipe("main", filter("src", 0, 0, 1), sj, filter("snk", 1, 1, 0))
	g := mustFlatten(t, p)
	if _, err := SteadyReps(g); err == nil {
		t.Fatal("expected inconsistent-rate error")
	}
}

func TestInitScheduleForPeeking(t *testing.T) {
	// A peeks 4 pops 1: upstream must prime 3 extra items before steady.
	p := ir.Pipe("main",
		filter("src", 0, 0, 1),
		filter("A", 4, 1, 1),
		filter("snk", 1, 1, 0),
	)
	g := mustFlatten(t, p)
	s, err := Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	var srcNode *ir.Node
	for _, n := range g.Nodes {
		if n.Kind == ir.NodeFilter && n.Filter.Kernel.Name == "src" {
			srcNode = n
		}
	}
	if s.InitReps[srcNode.ID] != 3 {
		t.Errorf("src init reps = %d, want 3", s.InitReps[srcNode.ID])
	}
	// Execute init+steady symbolically and verify the peeker always sees
	// its full window.
	sim := NewSim(g)
	run := func(entries []Entry) {
		for _, en := range entries {
			for i := 0; i < en.Count; i++ {
				if !sim.CanFire(en.Node) {
					t.Fatalf("schedule fires %s when it cannot fire", en.Node.Name)
				}
				sim.Fire(en.Node)
			}
		}
	}
	run(s.Init)
	for k := 0; k < 5; k++ {
		run(s.Steady)
	}
}

func TestFeedbackLoopSchedulable(t *testing.T) {
	// Echo-style loop: joiner RR(1,1), body consumes 2 produces 2,
	// splitter RR(1,1), delay 1 on the feedback path.
	body := filter("body", 2, 2, 2)
	fl := &ir.FeedbackLoop{
		Name:  "loop",
		Join:  ir.RoundRobin(1, 1),
		Body:  body,
		Split: ir.RoundRobin(1, 1),
		Delay: 1,
	}
	p := ir.Pipe("main", filter("src", 0, 0, 1), fl, filter("snk", 1, 1, 0))
	g := mustFlatten(t, p)
	s, err := Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalFirings() == 0 {
		t.Fatal("empty steady schedule")
	}
}

func TestFeedbackLoopDeadlockDetected(t *testing.T) {
	// Same loop with no delay: the joiner can never fire (starved loop
	// input) — the paper's deadlock condition maxloop(x) < x + delay.
	body := filter("body", 2, 2, 2)
	fl := &ir.FeedbackLoop{
		Name:  "loop",
		Join:  ir.RoundRobin(1, 1),
		Body:  body,
		Split: ir.RoundRobin(1, 1),
		Delay: 0,
	}
	p := ir.Pipe("main", filter("src", 0, 0, 1), fl, filter("snk", 1, 1, 0))
	g := mustFlatten(t, p)
	if _, err := Compute(g); err == nil {
		t.Fatal("expected deadlock error for zero-delay feedback loop")
	}
}

func TestBufferBoundsRespectSchedule(t *testing.T) {
	p := ir.Pipe("main",
		filter("src", 0, 0, 7),
		filter("A", 3, 3, 2),
		filter("snk", 5, 5, 0),
	)
	g := mustFlatten(t, p)
	s, err := Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges {
		if s.BufCap[e.ID] <= 0 {
			t.Errorf("edge %s has zero buffer bound", e)
		}
		if s.BufCap[e.ID] > 1000 {
			t.Errorf("edge %s has implausible bound %d", e, s.BufCap[e.ID])
		}
	}
}

func TestMaxLiveItemsBoundsBuffers(t *testing.T) {
	// A bursty source: without constraint the greedy schedule buffers all
	// 12 items; with MAXITEMS it interleaves.
	p := ir.Pipe("main",
		filter("src", 0, 0, 12),
		filter("A", 1, 1, 1),
		filter("snk", 1, 1, 0),
	)
	g := mustFlatten(t, p)
	unconstrained, err := Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	bounded, err := ComputeOpts(g, Options{MaxLiveItems: 14})
	if err != nil {
		t.Fatal(err)
	}
	maxCap := func(s *Schedule) int {
		m := 0
		for _, c := range s.BufCap {
			if c > m {
				m = c
			}
		}
		return m
	}
	if maxCap(bounded) > 14 {
		t.Errorf("bounded schedule peak %d exceeds MAXITEMS", maxCap(bounded))
	}
	if maxCap(unconstrained) < maxCap(bounded) {
		t.Errorf("unconstrained peak %d below bounded peak %d", maxCap(unconstrained), maxCap(bounded))
	}
	// An infeasible bound is reported, not silently violated.
	if _, err := ComputeOpts(g, Options{MaxLiveItems: 5}); err == nil {
		t.Error("expected infeasible MAXITEMS bound to error")
	}
}

func TestSteadyStateIsPeriodic(t *testing.T) {
	// After init, executing the steady schedule returns every channel to
	// the same occupancy — checked internally by Compute, exercised here
	// over a nontrivial graph.
	sj := ir.SJ("sj", ir.Duplicate(), ir.RoundRobin(2, 3),
		filter("a", 1, 1, 2), filter("b", 1, 1, 3))
	p := ir.Pipe("main", filter("src", 0, 0, 1), sj, filter("snk", 5, 5, 0))
	g := mustFlatten(t, p)
	if _, err := Compute(g); err != nil {
		t.Fatal(err)
	}
}

// Property: for random rate pipelines, the balance equations hold exactly:
// reps[u]*push == reps[v]*pop on every edge, and reps is minimal (gcd 1).
func TestQuickBalanceEquations(t *testing.T) {
	f := func(rates []uint8) bool {
		if len(rates) < 4 {
			return true
		}
		if len(rates) > 12 {
			rates = rates[:12]
		}
		var children []ir.Stream
		children = append(children, filter("src", 0, 0, int(rates[0]%5)+1))
		prev := int(rates[0]%5) + 1
		for i := 1; i+1 < len(rates); i++ {
			pop := int(rates[i]%4) + 1
			push := int(rates[i+1]%4) + 1
			children = append(children, filter("f", pop, pop, push))
			prev = push
		}
		children = append(children, filter("snk", prev, prev, 0))
		g, err := ir.Flatten(&ir.Program{Name: "q", Top: ir.Pipe("main", children...)})
		if err != nil {
			return true // duplicate-name single appearance etc.
		}
		reps, err := SteadyReps(g)
		if err != nil {
			return false
		}
		gcdAll := 0
		for _, e := range g.Edges {
			lhs := reps[e.Src.ID] * e.Src.PushPort(e.SrcPort)
			rhs := reps[e.Dst.ID] * e.Dst.PopPort(e.DstPort)
			if lhs != rhs {
				return false
			}
		}
		for _, r := range reps {
			gcdAll = int(gcd(int64(gcdAll), int64(r)))
		}
		return gcdAll == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestItemsPerSteady(t *testing.T) {
	p := ir.Pipe("main",
		filter("src", 0, 0, 3),
		filter("A", 2, 2, 1),
		filter("snk", 1, 1, 0),
	)
	g := mustFlatten(t, p)
	s, err := Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges {
		items := s.ItemsPerSteady(e)
		if items != s.Reps[e.Dst.ID]*e.Dst.PopPort(e.DstPort) {
			t.Errorf("edge %s: produced %d != consumed %d per steady", e, items, s.Reps[e.Dst.ID]*e.Dst.PopPort(e.DstPort))
		}
	}
}

// TestBufCapMatchesRescan pins BufCap, which order updates from the fired
// node's output edges alone, against a replay that rescans every edge
// after every firing: Init, then the steady schedule twice (order's
// verification pass repeats it), on the 12 suite apps and the benchmark's
// four .str programs.
func TestBufCapMatchesRescan(t *testing.T) {
	progs := map[string]*ir.Program{}
	for _, app := range apps.Suite() {
		progs[app.Name] = app.Build()
	}
	for _, name := range []string{"bitonic.str", "filterbank.str", "fmradio.str", "freqhop.str"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "examples", "strprogs", name))
		if err != nil {
			t.Fatal(err)
		}
		if progs[name], err = lang.ParseAndElaborate(string(src), "Main"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for name, prog := range progs {
		g, err := ir.Flatten(prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s, err := Compute(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sim := NewSim(g)
		high := append([]int(nil), sim.Items...)
		for _, phase := range [][]Entry{s.Init, s.Steady, s.Steady} {
			for _, en := range phase {
				for k := 0; k < en.Count; k++ {
					sim.Fire(en.Node)
					for i, v := range sim.Items {
						high[i] = max(high[i], v)
					}
				}
			}
		}
		if !slices.Equal(s.BufCap, high) {
			t.Errorf("%s: BufCap %v, rescan %v", name, s.BufCap, high)
		}
	}
}
