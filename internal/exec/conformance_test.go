package exec

import (
	"fmt"
	"testing"

	"streamit/internal/apps"
	"streamit/internal/ir"
	"streamit/internal/obs"
	"streamit/internal/sched"
)

// confIters is the number of steady iterations every engine executes in
// the conformance suite. Small enough to keep the 12-app sweep fast, large
// enough that schedule-order differences between engines would surface.
const confIters = 4

// counts is the engine-independent view of one node's profile: how often
// it fired and how many items crossed its tapes. Peeks are left out: the
// peek window is the declared window times the firings, so it adds
// nothing the firing count does not already say.
type counts struct {
	Firings, Pushed, Popped int64
}

// profileCounts aggregates a profiler snapshot by node name.
func profileCounts(p *obs.Profiler) map[string]counts {
	out := map[string]counts{}
	for _, fp := range p.Snapshot() {
		c := out[fp.Name]
		c.Firings += fp.Firings
		c.Pushed += fp.Pushed
		c.Popped += fp.Popped
		out[fp.Name] = c
	}
	return out
}

// flattenApp builds a fresh graph + schedule for one suite app. Filters
// are single-appearance, so every engine construction needs its own copy;
// flattening is deterministic, so node names and IDs agree across copies.
func flattenApp(t *testing.T, app apps.App) (*ir.Graph, *sched.Schedule) {
	t.Helper()
	g, err := ir.Flatten(app.Build())
	if err != nil {
		t.Fatalf("flatten: %v", err)
	}
	s, err := sched.Compute(g)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	return g, s
}

// diffCounts compares two aggregated profiles and reports every node whose
// counters differ.
func diffCounts(t *testing.T, engine string, want, got map[string]counts) {
	t.Helper()
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: node %s missing from profile", engine, name)
			continue
		}
		if g != w {
			t.Errorf("%s: node %s: firings/pushed/popped = %d/%d/%d, want %d/%d/%d",
				engine, name, g.Firings, g.Pushed, g.Popped, w.Firings, w.Pushed, w.Popped)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: unexpected node %s in profile", engine, name)
		}
	}
}

// TestEngineConformance runs every suite benchmark on all three engines
// and both work-function backends, asserting that the profiler observes
// identical firing counts and identical push/pop totals per node. The
// sequential VM run is the reference; any divergence means an engine
// reordered, dropped, or duplicated work.
func TestEngineConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance sweep is not short")
	}
	for _, app := range apps.Suite() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			// Reference: sequential engine on the VM backend.
			g, s := flattenApp(t, app)
			ref, err := NewFromGraphOpts(g, s, Options{Profile: true})
			if err != nil {
				t.Fatalf("sequential/vm: %v", err)
			}
			if err := ref.Run(confIters); err != nil {
				t.Fatalf("sequential/vm run: %v", err)
			}
			want := profileCounts(ref.Profile())
			if len(want) == 0 {
				t.Fatal("reference profile is empty")
			}

			for _, backend := range []Backend{BackendVM, BackendInterp} {
				backend := backend
				bname := "vm"
				if backend == BackendInterp {
					bname = "interp"
				}

				if backend != BackendVM { // vm sequential is the reference itself
					label := fmt.Sprintf("sequential/%s", bname)
					g, s := flattenApp(t, app)
					e, err := NewFromGraphOpts(g, s, Options{Backend: backend, Profile: true})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if err := e.Run(confIters); err != nil {
						t.Fatalf("%s run: %v", label, err)
					}
					diffCounts(t, label, want, profileCounts(e.Profile()))
				}

				{
					label := fmt.Sprintf("parallel/%s", bname)
					g, s := flattenApp(t, app)
					pe, err := NewParallelOpts(g, s, Options{Backend: backend, Profile: true})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if err := pe.Run(confIters); err != nil {
						t.Fatalf("%s run: %v", label, err)
					}
					diffCounts(t, label, want, profileCounts(pe.Profile()))
				}

				{
					label := fmt.Sprintf("dynamic/%s", bname)
					g, s := flattenApp(t, app)
					d, err := NewFromGraphOpts(g, nil, Options{Backend: backend, Profile: true})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if err := d.runBudget(scheduleBudget(s, confIters)); err != nil {
						t.Fatalf("%s run: %v", label, err)
					}
					diffCounts(t, label, want, profileCounts(d.Profile()))
				}
			}
		})
	}
}

// TestScheduleBudget checks the budget arithmetic against the schedule.
func TestScheduleBudget(t *testing.T) {
	g, s := flattenApp(t, apps.Suite()[0])
	b := scheduleBudget(s, 3)
	if len(b) != len(g.Nodes) {
		t.Fatalf("budget length %d, want %d", len(b), len(g.Nodes))
	}
	for _, n := range g.Nodes {
		want := int64(s.InitReps[n.ID]) + 3*int64(s.Reps[n.ID])
		if b[n.ID] != want {
			t.Errorf("node %s: budget %d, want %d", n.Name, b[n.ID], want)
		}
	}
}

// TestSteadyStateAllocatesNothing pins the sequential engine's firing path
// at zero allocations per steady iteration for every suite app, with the
// profiler off and on: tapes, kernels' frames and the profiler's counters
// are all sized before the first steady firing.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	for _, app := range apps.Suite() {
		for _, profile := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/profile=%v", app.Name, profile), func(t *testing.T) {
				g, s := flattenApp(t, app)
				e, err := NewFromGraphOpts(g, s, Options{Profile: profile})
				if err != nil {
					t.Fatal(err)
				}
				if err := e.RunInit(); err != nil {
					t.Fatal(err)
				}
				// Warm-up: rings that grow lazily reach their steady size.
				if err := e.RunSteady(2); err != nil {
					t.Fatal(err)
				}
				allocs := testing.AllocsPerRun(5, func() {
					if err := e.RunSteady(1); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Fatalf("RunSteady(1) allocates %.0f objects per iteration, want 0", allocs)
				}
			})
		}
	}
}
