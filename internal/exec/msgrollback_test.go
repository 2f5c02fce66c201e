package exec

import (
	"testing"

	"streamit/internal/ir"
	"streamit/internal/partition"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
)

// sendThenFailProgram builds src -> trig -> amp -> snk, where trig sends
// bump(1) to amp when it sees 42 and then, on its fourth firing only,
// indexes a table out of range: the firing fails after its message was
// enqueued. amp multiplies by a gain that every delivered bump raises by
// its argument, so a leaked or duplicated message shows in the output.
func sendThenFailProgram() (*ir.Program, *[]float64) {
	prog := &ir.Program{Name: "sendThenFail"}
	portal := prog.NewPortal("gainPortal")

	ab := wfunc.NewKernel("amp", 1, 1, 1)
	gain := ab.Field("gain", 1)
	arg := ab.Local("arg")
	ab.WorkBody(wfunc.Push1(wfunc.MulX(wfunc.PopE(), gain)))
	ab.Handler("bump", 1, wfunc.SetF(gain, wfunc.AddX(gain, arg)))
	amp := &ir.Filter{Kernel: ab.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
	portal.Register(amp)

	tb := wfunc.NewKernel("trig", 1, 1, 1)
	seen := tb.Field("seen", 0)
	tbl := tb.FieldArray("tbl", 4)
	v := tb.Local("v")
	tb.WorkBody(
		wfunc.Set(v, wfunc.PopE()),
		wfunc.IfS(wfunc.Bin(wfunc.Eq, v, wfunc.C(42)),
			&wfunc.Send{Portal: portal.ID, Handler: "bump", Args: []wfunc.Expr{wfunc.C(1)},
				MinLatency: 1, MaxLatency: 1},
			wfunc.IfS(wfunc.Bin(wfunc.Eq, seen, wfunc.C(3)),
				wfunc.Set(v, wfunc.FIdx(tbl, wfunc.C(99))))),
		wfunc.SetF(seen, wfunc.AddX(seen, wfunc.C(1))),
		wfunc.Push1(v),
	)
	trig := &ir.Filter{Kernel: tb.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}

	snk, got := SliceSink("snk")
	prog.Top = ir.Pipe("main",
		SliceSource("src", []float64{1, 2, 3, 42, 5, 6, 7, 8}), trig, amp, snk)
	return prog, got
}

// TestRolledBackFiringTakesItsMessagesAlong: a supervised firing that is
// rolled back never happened, so the teleport messages it sent before
// failing must not be delivered. Under skip the failed firing's bump is
// dropped with it (gain stays 1); under restart the firing re-runs on a
// fresh state and its bump arrives exactly once (gain 2 from the trigger
// item on — trig sends before it pushes — not 3).
func TestRolledBackFiringTakesItsMessagesAlong(t *testing.T) {
	cases := []struct {
		policy string
		want   []float64
	}{
		{"trig=skip", []float64{1, 2, 3, 0, 5, 6, 7, 8}},
		{"trig=restart", []float64{1, 2, 3, 84, 10, 12, 14, 16}},
	}
	engines := []struct {
		name string
		run  func(t *testing.T, opts Options) []float64
	}{
		{"sequential", func(t *testing.T, opts Options) []float64 {
			prog, got := sendThenFailProgram()
			g, s := flattenScheduled(t, prog)
			e, err := NewFromGraphOpts(g, s, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Run(8); err != nil {
				t.Fatal(err)
			}
			return *got
		}},
		{"task+swp", func(t *testing.T, opts Options) []float64 {
			prog, got := sendThenFailProgram()
			g, s := flattenScheduled(t, prog)
			plan, err := partition.BuildExecPlan(prog, g, s, partition.ExecPlanOptions{Strategy: partition.StratSWP, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			g2, s2 := flattenScheduled(t, plan.Program)
			st, err := partition.PipelineStages(g2)
			if err != nil {
				t.Fatal(err)
			}
			opts.Stages, opts.StageClusters = st.Levels, st.Clusters
			me, err := NewMappedOpts(g2, s2, plan.Assign(g2, s2), plan.Workers, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := me.Run(8); err != nil {
				t.Fatal(err)
			}
			return *got
		}},
	}
	for _, eng := range engines {
		for _, c := range cases {
			t.Run(eng.name+"/"+c.policy, func(t *testing.T) {
				out := eng.run(t, Options{OnError: mustPolicies(t, c.policy)})
				if len(out) < len(c.want) {
					t.Fatalf("got %d items %v, want at least %d", len(out), out, len(c.want))
				}
				for i, w := range c.want {
					if out[i] != w {
						t.Fatalf("output %v, want %v", out[:len(c.want)], c.want)
					}
				}
			})
		}
	}
}

func flattenScheduled(t *testing.T, prog *ir.Program) (*ir.Graph, *sched.Schedule) {
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
