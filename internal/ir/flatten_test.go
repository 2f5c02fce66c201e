package ir

import (
	"strings"
	"testing"

	"streamit/internal/wfunc"
)

// Test helpers: minimal source, sink, and pass-through filters.

func srcFilter(name string, push int) *Filter {
	b := wfunc.NewKernel(name, 0, 0, push)
	var body []wfunc.Stmt
	for i := 0; i < push; i++ {
		body = append(body, wfunc.Push1(wfunc.Ci(i)))
	}
	b.WorkBody(body...)
	return &Filter{Kernel: b.Build(), In: TypeVoid, Out: TypeFloat}
}

func sinkFilter(name string, pop int) *Filter {
	b := wfunc.NewKernel(name, pop, pop, 0)
	var body []wfunc.Stmt
	for i := 0; i < pop; i++ {
		body = append(body, wfunc.Pop1())
	}
	b.WorkBody(body...)
	return &Filter{Kernel: b.Build(), In: TypeFloat, Out: TypeVoid}
}

func gain(name string, g float64) *Filter {
	b := wfunc.NewKernel(name, 1, 1, 1)
	b.WorkBody(wfunc.Push1(wfunc.MulX(wfunc.PopE(), wfunc.C(g))))
	return &Filter{Kernel: b.Build(), In: TypeFloat, Out: TypeFloat}
}

func fir(name string, taps int) *Filter {
	b := wfunc.NewKernel(name, taps, 1, 1)
	w := b.FieldArray("w", taps)
	i := b.Local("i")
	sum := b.Local("sum")
	b.InitBody(wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(taps),
		wfunc.SetFIdx(w, i, wfunc.AddX(i, wfunc.C(1)))))
	b.WorkBody(
		wfunc.Set(sum, wfunc.C(0)),
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(taps),
			wfunc.Set(sum, wfunc.AddX(sum, wfunc.MulX(wfunc.PeekX(i), wfunc.FIdx(w, i))))),
		wfunc.Pop1(),
		wfunc.Push1(sum),
	)
	return &Filter{Kernel: b.Build(), In: TypeFloat, Out: TypeFloat}
}

func TestFlattenPipeline(t *testing.T) {
	p := Pipe("main", srcFilter("src", 1), gain("g1", 2), gain("g2", 3), sinkFilter("snk", 1))
	g, err := Flatten(&Program{Name: "t", Top: p})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != 4 {
		t.Fatalf("got %d nodes, want 4", len(g.Nodes))
	}
	if len(g.Edges) != 3 {
		t.Fatalf("got %d edges, want 3", len(g.Edges))
	}
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(order))
	for i, n := range order {
		names[i] = n.Name
	}
	joined := strings.Join(names, " ")
	if !strings.HasPrefix(joined, "src") || !strings.Contains(joined, "g1") {
		t.Errorf("unexpected topo order: %v", names)
	}
}

func TestFlattenSplitJoin(t *testing.T) {
	sj := SJ("eq", Duplicate(), RoundRobin(),
		gain("band1", 1), gain("band2", 2), gain("band3", 3))
	p := Pipe("main", srcFilter("src", 1), sj, sinkFilter("snk", 3))
	g, err := Flatten(&Program{Name: "t", Top: p})
	if err != nil {
		t.Fatal(err)
	}
	// src, splitter, 3 gains, joiner, sink = 7 nodes
	if len(g.Nodes) != 7 {
		t.Fatalf("got %d nodes, want 7", len(g.Nodes))
	}
	var sp, jn *Node
	for _, n := range g.Nodes {
		switch n.Kind {
		case NodeSplitter:
			sp = n
		case NodeJoiner:
			jn = n
		}
	}
	if sp == nil || jn == nil {
		t.Fatal("missing splitter or joiner")
	}
	if sp.PopPort(0) != 1 || sp.PushPort(0) != 1 || sp.PushPort(2) != 1 {
		t.Errorf("duplicate splitter rates wrong: pop=%d push=%d", sp.PopPort(0), sp.PushPort(0))
	}
	if jn.PopPort(1) != 1 || jn.TotalPush() != 3 {
		t.Errorf("joiner rates wrong: pop(1)=%d push=%d", jn.PopPort(1), jn.TotalPush())
	}
}

func TestFlattenWeightedRoundRobin(t *testing.T) {
	// The paper's butterfly: WRR(N,N) split, two branches, RR join.
	n := 4
	sj := SJ("bfly", RoundRobin(n, n), RoundRobin(),
		gain("scale", 1.5), Identity(TypeFloat))
	p := Pipe("main", srcFilter("src", 2*n), sj, sinkFilter("snk", 2))
	g, err := Flatten(&Program{Name: "t", Top: p})
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range g.Nodes {
		if node.Kind == NodeSplitter {
			if node.PopPort(0) != 2*n {
				t.Errorf("WRR splitter pop = %d, want %d", node.PopPort(0), 2*n)
			}
			if node.PushPort(0) != n || node.PushPort(1) != n {
				t.Errorf("WRR splitter pushes = %d,%d want %d,%d",
					node.PushPort(0), node.PushPort(1), n, n)
			}
		}
	}
}

func TestFlattenFeedbackLoop(t *testing.T) {
	// Fibonacci-style loop: joiner RR(0? no—1,1), body adds pairs.
	body := fir("loopbody", 1)
	fl := &FeedbackLoop{
		Name:  "loop",
		Join:  RoundRobin(1, 1),
		Body:  body,
		Split: Duplicate(),
		Delay: 2,
		InitPath: func(i int) float64 {
			return float64(i + 1)
		},
	}
	p := Pipe("main", srcFilter("src", 1), fl, sinkFilter("snk", 1))
	g, err := Flatten(&Program{Name: "t", Top: p})
	if err != nil {
		t.Fatal(err)
	}
	var back *Edge
	for _, e := range g.Edges {
		if e.Back {
			back = e
		}
	}
	if back == nil {
		t.Fatal("no back edge marked")
	}
	if len(back.Initial) != 2 || back.Initial[0] != 1 || back.Initial[1] != 2 {
		t.Errorf("back edge initial items = %v, want [1 2]", back.Initial)
	}
	if _, err := g.TopoOrder(); err != nil {
		t.Errorf("topo order should succeed ignoring back edges: %v", err)
	}
}

func TestTypeMismatchRejected(t *testing.T) {
	bad := gain("bad", 1)
	bad.In = TypeInt
	p := Pipe("main", srcFilter("src", 1), bad, sinkFilter("snk", 1))
	if _, err := Flatten(&Program{Name: "t", Top: p}); err == nil {
		t.Fatal("expected type mismatch error")
	} else if !strings.Contains(err.Error(), "cannot connect") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestSingleAppearanceRejected(t *testing.T) {
	f := gain("shared", 2)
	p := Pipe("main", srcFilter("src", 1), f, f, sinkFilter("snk", 1))
	if _, err := Flatten(&Program{Name: "t", Top: p}); err == nil {
		t.Fatal("expected single-appearance error")
	}
}

func TestWeightArityRejected(t *testing.T) {
	sj := SJ("sj", RoundRobin(1, 2, 3), RoundRobin(), gain("a", 1), gain("b", 1))
	p := Pipe("main", srcFilter("src", 1), sj, sinkFilter("snk", 2))
	if _, err := Flatten(&Program{Name: "t", Top: p}); err == nil {
		t.Fatal("expected weight arity error")
	}
}

func TestZeroWeightSourceBranch(t *testing.T) {
	// A branch whose filter consumes no input must have splitter weight 0
	// (appendix restriction 6) — and then flattening succeeds with no edge.
	sj := SJ("sj", RoundRobin(1, 0), RoundRobin(1, 1),
		gain("a", 1), srcFilter("gen", 1))
	p := Pipe("main", srcFilter("src", 1), sj, sinkFilter("snk", 2))
	g, err := Flatten(&Program{Name: "t", Top: p})
	if err != nil {
		t.Fatal(err)
	}
	// The generator branch must have no input edge.
	gen := g.FilterNode[sj.Children[1].(*Filter)]
	if gen == nil || !gen.IsSource() {
		t.Error("generator branch should remain a source")
	}
	// Nonzero weight on a source branch is rejected.
	sj2 := SJ("sj2", RoundRobin(1, 1), RoundRobin(1, 1),
		gain("a2", 1), srcFilter("gen2", 1))
	p2 := Pipe("main2", srcFilter("src2", 1), sj2, sinkFilter("snk2", 2))
	if _, err := Flatten(&Program{Name: "t", Top: p2}); err == nil {
		t.Fatal("expected zero-weight restriction error")
	}
}

func TestDanglingIORejected(t *testing.T) {
	p := Pipe("main", srcFilter("src", 1), gain("g", 1))
	if _, err := Flatten(&Program{Name: "t", Top: p}); err == nil {
		t.Fatal("expected unconsumed-output error")
	}
	p2 := Pipe("main", gain("g2", 1), sinkFilter("snk", 1))
	if _, err := Flatten(&Program{Name: "t", Top: p2}); err == nil {
		t.Fatal("expected missing-input error")
	}
}

func TestComputeStats(t *testing.T) {
	sj := SJ("eq", Duplicate(), RoundRobin(),
		Pipe("b1", fir("f1", 8), gain("g1", 1)),
		gain("g2", 2))
	p := Pipe("main", srcFilter("src", 1), sj, sinkFilter("snk", 2))
	g, err := Flatten(&Program{Name: "t", Top: p})
	if err != nil {
		t.Fatal(err)
	}
	st, err := g.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Filters != 5 {
		t.Errorf("filters = %d, want 5", st.Filters)
	}
	if st.Peeking != 1 {
		t.Errorf("peeking = %d, want 1 (the FIR)", st.Peeking)
	}
	// Longest: src, f1, g1, snk = 4; shortest: src, g2, snk = 3.
	if st.LongestPath != 4 || st.ShortestPath != 3 {
		t.Errorf("paths = %d/%d, want 3/4", st.ShortestPath, st.LongestPath)
	}
}

func TestDownstream(t *testing.T) {
	p := Pipe("main", srcFilter("src", 1), gain("a", 1), gain("b", 1), sinkFilter("snk", 1))
	g, err := Flatten(&Program{Name: "t", Top: p})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Downstream(g.Nodes[0], g.Nodes[3]) {
		t.Error("sink should be downstream of source")
	}
	if g.Downstream(g.Nodes[3], g.Nodes[0]) {
		t.Error("source should not be downstream of sink")
	}
}

func TestIdentityFilter(t *testing.T) {
	id := Identity(TypeFloat)
	out, err := wfunc.RunKernel(id.Kernel, []float64{3, 1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out[0] != 3 || out[2] != 4 {
		t.Errorf("identity output = %v", out)
	}
}

func TestRenderString(t *testing.T) {
	p := Pipe("main", srcFilter("src", 1), sinkFilter("snk", 1))
	s := String(p)
	if !strings.Contains(s, "pipeline main") || !strings.Contains(s, "filter src") {
		t.Errorf("render missing content:\n%s", s)
	}
}

func TestDotOutput(t *testing.T) {
	fl := &FeedbackLoop{
		Name:  "loop",
		Join:  RoundRobin(1, 1),
		Body:  fir("dotbody", 2),
		Split: Duplicate(),
		Delay: 3,
	}
	p := Pipe("main", srcFilter("dsrc", 1), fl, sinkFilter("dsnk", 1))
	g, err := Flatten(&Program{Name: "t", Top: p})
	if err != nil {
		t.Fatal(err)
	}
	dot := g.Dot()
	for _, want := range []string{"digraph stream", "shape=box", "style=dashed", "delay 3", "peripheries=2"} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot output missing %q:\n%s", want, dot)
		}
	}
}
