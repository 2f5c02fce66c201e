package exec

import (
	"math"
	"testing"

	"streamit/internal/apps"
	"streamit/internal/ir"
	"streamit/internal/sched"
)

// buildBoth compiles a program and returns sequential and parallel engines
// over independent graphs (filters are single-appearance, so the program
// is built twice by the caller).
func runSequentialOutputs(t *testing.T, prog *ir.Program, iters int) []float64 {
	t.Helper()
	pipe := prog.Top.(*ir.Pipeline)
	snk, got := SliceSink("seqsink")
	pipe.Children[len(pipe.Children)-1] = snk
	out, err := RunCollect(prog, iters, got)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func runParallelOutputs(t *testing.T, prog *ir.Program, iters int) []float64 {
	t.Helper()
	pipe := prog.Top.(*ir.Pipeline)
	snk, got := SliceSink("parsink")
	pipe.Children[len(pipe.Children)-1] = snk
	g, err := ir.Flatten(prog)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	pe, err := NewParallelOpts(g, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pe.Run(iters); err != nil {
		t.Fatal(err)
	}
	return *got
}

// TestParallelMatchesSequential runs several benchmarks on both backends
// and compares the exact output streams.
func TestParallelMatchesSequential(t *testing.T) {
	cases := []struct {
		name  string
		build func() *ir.Program
		iters int
	}{
		{"FMRadio", func() *ir.Program { return apps.FMRadio(4, 16) }, 20},
		{"FilterBank", func() *ir.Program { return apps.FilterBank(4, 16) }, 12},
		{"BitonicSort", func() *ir.Program { return apps.BitonicSort(8) }, 10},
		{"TDE", func() *ir.Program { return apps.TDE(12, 2) }, 6},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			seq := runSequentialOutputs(t, c.build(), c.iters*4)
			par := runParallelOutputs(t, c.build(), c.iters)
			if len(par) == 0 {
				t.Fatal("parallel backend produced no output")
			}
			n := len(par)
			if len(seq) < n {
				n = len(seq)
			}
			if n == 0 {
				t.Fatal("nothing to compare")
			}
			for i := 0; i < n; i++ {
				if math.Abs(seq[i]-par[i]) > 1e-9 {
					t.Fatalf("output %d: sequential %v, parallel %v", i, seq[i], par[i])
				}
			}
		})
	}
}

// TestParallelRejectsMessagingAndLoops: programs needing global wavefront
// ordering are routed to the sequential engine.
func TestParallelRejectsMessagingAndLoops(t *testing.T) {
	prog := apps.FreqHoppingRadio(true)
	g, err := ir.Flatten(prog)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewParallelOpts(g, s, Options{}); err == nil {
		t.Fatal("expected rejection of teleport messaging")
	}

	loopProg := &ir.Program{Name: "loop", Top: ir.Pipe("main",
		apps.Source("s"),
		&ir.FeedbackLoop{
			Name: "fl", Join: ir.RoundRobin(1, 1),
			Body:  apps.Adder("add", 2),
			Split: ir.Duplicate(), Delay: 1,
		},
		apps.Sink("k", 1),
	)}
	g2, err := ir.Flatten(loopProg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sched.Compute(g2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewParallelOpts(g2, s2, Options{}); err == nil {
		t.Fatal("expected rejection of feedback loops")
	}
}

// BenchmarkParallelVsSequentialTDE measures real host-machine speedup of
// the goroutine backend on a compute-heavy pipeline.
func BenchmarkParallelVsSequentialTDE(b *testing.B) {
	b.Run("sequential", func(b *testing.B) {
		e, err := New(apps.TDE(24, 3))
		if err != nil {
			b.Fatal(err)
		}
		if err := e.RunInit(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := e.RunSteady(1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		prog := apps.TDE(24, 3)
		g, err := ir.Flatten(prog)
		if err != nil {
			b.Fatal(err)
		}
		s, err := sched.Compute(g)
		if err != nil {
			b.Fatal(err)
		}
		pe, err := NewParallelOpts(g, s, Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		if err := pe.Run(b.N); err != nil {
			b.Fatal(err)
		}
	})
}

// TestQuickParallelMatchesSequentialRandom: randomized rate/structure
// pipelines produce identical outputs on both backends.
func TestQuickParallelMatchesSequentialRandom(t *testing.T) {
	mk := func(name string, peek, pop, push int, scale float64) *ir.Filter {
		b := wfuncKernel(name, peek, pop, push, scale)
		in, out := ir.TypeFloat, ir.TypeFloat
		if pop == 0 && peek == 0 {
			in = ir.TypeVoid
		}
		if push == 0 {
			out = ir.TypeVoid
		}
		return &ir.Filter{Kernel: b, In: in, Out: out}
	}
	for seed := int64(0); seed < 25; seed++ {
		rng := newRand(seed)
		build := func() *ir.Program {
			rng := newRand(seed) // identical structure for both builds
			var chain []ir.Stream
			chain = append(chain, rampFilter("src"))
			depth := rng.Intn(3) + 1
			for d := 0; d < depth; d++ {
				pop := rng.Intn(2) + 1
				push := rng.Intn(2) + 1
				peek := pop + rng.Intn(3)
				chain = append(chain, mk(letter("f", d), peek, pop, push, 0.5+float64(d)))
			}
			if rng.Intn(2) == 0 {
				split := ir.SJSpec(ir.RoundRobin(1, 1))
				if rng.Intn(2) == 0 {
					split = ir.Duplicate()
				}
				chain = append(chain, ir.SJ("sj", split, ir.RoundRobin(1, 1),
					mk("ba", 1, 1, 1, 2), mk("bb", 2, 1, 1, 3)))
			}
			chain = append(chain, mk("snk", 2, 2, 0, 0))
			return &ir.Program{Name: "rnd", Top: ir.Pipe("main", chain...)}
		}
		_ = rng
		seq := runSequentialOutputs(t, build(), 40)
		par := runParallelOutputs(t, build(), 10)
		n := len(par)
		if len(seq) < n {
			n = len(seq)
		}
		if n == 0 {
			t.Fatalf("seed %d: no outputs", seed)
		}
		for i := 0; i < n; i++ {
			if math.Abs(seq[i]-par[i]) > 1e-9 {
				t.Fatalf("seed %d: output %d differs: %v vs %v", seed, i, seq[i], par[i])
			}
		}
	}
}
