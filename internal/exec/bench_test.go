package exec

import (
	"testing"

	"streamit/internal/apps"
	"streamit/internal/ir"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
)

// BenchmarkEngineFMRadio measures sequential-runtime throughput on the FM
// radio (steady iterations per op).
func BenchmarkEngineFMRadio(b *testing.B) {
	e, err := New(apps.FMRadio(6, 32))
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
}

// BenchmarkEngineTeleport measures the dynamic (message-constrained)
// scheduler against the static one.
func BenchmarkEngineTeleport(b *testing.B) {
	e, err := New(apps.FreqHoppingRadio(true))
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
}

// BenchmarkChannelOps measures the ring buffer.
func BenchmarkChannelOps(b *testing.B) {
	ch := wfunc.NewRing(64)
	for i := 0; i < 32; i++ {
		ch.Push(float64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Push(float64(i))
		_ = ch.Peek(3)
		ch.Pop()
	}
}

// BenchmarkFiringOverhead reports ns per firing of a one-push IL source
// that fires 64 times a steady iteration, through the sequential engine's
// runEntries and the firing core's fireHeld under a mapped block, each both
// ways a filter fires: its entry's whole share in one VM entry, and firing
// by firing — runEntries' step loop on a graph where some filter sends
// messages, and fire, which a filter with anything attached takes.
func BenchmarkFiringOverhead(b *testing.B) {
	const reps = 64
	ramp := rampFilter("src")
	g, err := ir.Flatten(&ir.Program{Name: "overhead", Top: ir.Pipe("main", ramp, nullSink("snk", reps))})
	if err != nil {
		b.Fatal(err)
	}
	s, err := sched.Compute(g)
	if err != nil {
		b.Fatal(err)
	}
	src := g.FilterNode[ramp]
	perFiring := func(b *testing.B, firings int, fire func()) {
		for b.Loop() {
			fire()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*firings), "ns/firing")
	}
	for _, sends := range []bool{false, true} {
		name := map[bool]string{false: "runEntries/one-entry", true: "runEntries/per-firing"}[sends]
		b.Run(name, func(b *testing.B) {
			e, err := NewFromGraphBackend(g, s, BackendVM)
			if err != nil {
				b.Fatal(err)
			}
			e.sends = sends
			rt := e.nodes[src.ID]
			entries := []sched.Entry{{Node: src, Count: reps}}
			perFiring(b, reps, func() {
				if err := e.runEntries(entries, nil, 1); err != nil {
					b.Fatal(err)
				}
				rt.out.Popped = rt.out.Pushed
			})
		})
	}
	mapped := func(b *testing.B) (*MappedEngine, *swpStep) {
		me, err := NewMappedOpts(g, s, make([]int, len(g.Nodes)), 1, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := me.setup(); err != nil {
			b.Fatal(err)
		}
		me.planWorkers()
		return me, me.plans[0].steps[0]
	}
	b.Run("fireHeld/one-entry", func(b *testing.B) {
		me, sp := mapped(b)
		rt := sp.nodes[0]
		perFiring(b, reps*StageBatch, func() {
			if err := me.fireHeld(rt, StageBatch, reps, sp.inPer, sp.inBase); err != nil {
				b.Fatal(err)
			}
			rt.out.Popped = rt.out.Pushed
		})
	})
	b.Run("fireHeld/per-firing", func(b *testing.B) {
		me, sp := mapped(b)
		rt := sp.nodes[0]
		perFiring(b, reps*StageBatch, func() {
			for r := reps * StageBatch; r > 0; r-- {
				if err := me.fire(rt); err != nil {
					b.Fatal(err)
				}
			}
			rt.out.Popped = rt.out.Pushed
		})
	})
}
