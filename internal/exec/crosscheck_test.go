package exec

import (
	"math/rand"
	"testing"

	"streamit/internal/ir"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
)

// TestEngineMatchesAbstractSim: the value-carrying engine and the abstract
// count-only simulation must agree on every channel occupancy and firing
// count after init plus k steady iterations, for randomized rate pipelines
// with split-joins. The engine's side is read from its checkpoint image,
// the one contract for engine state.
func TestEngineMatchesAbstractSim(t *testing.T) {
	mk := func(name string, peek, pop, push int) *ir.Filter {
		b := wfunc.NewKernel(name, peek, pop, push)
		var body []wfunc.Stmt
		for i := 0; i < pop; i++ {
			body = append(body, wfunc.Pop1())
		}
		for i := 0; i < push; i++ {
			body = append(body, wfunc.Push1(wfunc.Ci(i)))
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
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		pushA := rng.Intn(3) + 1
		popB := rng.Intn(3) + 1
		pushB := rng.Intn(3) + 1
		peekB := popB + rng.Intn(3)
		wide := rng.Intn(2) == 0

		var mid ir.Stream = mk("B", peekB, popB, pushB)
		if wide {
			mid = ir.SJ("sj", ir.RoundRobin(1, 1), ir.RoundRobin(1, 1),
				mk("B", peekB, popB, pushB), mk("C", peekB, popB, pushB))
		}
		p := ir.Pipe("main", mk("src", 0, 0, pushA), mid, mk("snk", 2, 2, 0))
		g, err := ir.Flatten(&ir.Program{Name: "x", Top: p})
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.Compute(g)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewFromGraphBackend(g, s, BackendVM)
		if err != nil {
			t.Fatal(err)
		}
		iters := rng.Intn(4) + 1
		if err := e.Run(iters); err != nil {
			t.Fatal(err)
		}

		sim := sched.NewSim(g)
		run := func(entries []sched.Entry) {
			for _, en := range entries {
				for i := 0; i < en.Count; i++ {
					sim.Fire(en.Node)
				}
			}
		}
		run(s.Init)
		for k := 0; k < iters; k++ {
			run(s.Steady)
		}
		img, err := readImage(new(ckptImage), checkpointBytes(t, e, int64(iters)), e.fp, len(g.Nodes),
			func(i int) (string, *wfunc.State, bool) {
				return g.Nodes[i].Name, e.nodes[i].state, e.nodes[i].state == e.protos[i]
			})
		if err != nil {
			t.Fatal(err)
		}
		for _, edge := range g.Edges {
			if got, want := len(img.edges[edge.ID].raw)/8, sim.Items[edge.ID]; got != want {
				t.Fatalf("trial %d: channel %s holds %d items, abstract sim says %d",
					trial, edge, got, want)
			}
		}
		for _, n := range g.Nodes {
			if got, want := img.nodes[n.ID].fired, int64(sim.Fired[n.ID]); got != want {
				t.Fatalf("trial %d: node %s fired %d times, abstract sim says %d",
					trial, n.Name, got, want)
			}
		}
	}
}
