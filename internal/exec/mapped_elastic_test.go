package exec

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"streamit/internal/apps"
	"streamit/internal/faults"
	"streamit/internal/ir"
	"streamit/internal/partition"
	"streamit/internal/wfunc"
)

// skewProg is a plain pipeline of cheap gain filters — under StratTask the
// static estimator sees five near-equal filters, so the packer has no reason
// to isolate any of them. Tests then inflate one filter's runtime cost with
// OverrideWork to open a gap between the static plan and reality.
func skewProg() *ir.Program {
	return &ir.Program{Name: "skew", Top: ir.Pipe("main",
		rampFilter("src"),
		gainFilter("a", 2),
		gainFilter("b", 3),
		gainFilter("hot", 5),
		gainFilter("d", 7),
		nullSink("snk", 1))}
}

// spinGain burns CPU and then computes exactly what gainFilter(g) computes,
// so overriding with it changes a filter's cost without changing its output.
func spinGain(g float64, spins int) func(in, out wfunc.Tape) {
	return func(in, out wfunc.Tape) {
		v := in.Pop()
		x := 0.0
		for i := 0; i < spins; i++ {
			x += float64(i % 7)
		}
		if x < 0 { // never true; keeps the loop observable
			v += x
		}
		out.Push(v * g)
	}
}

// runMappedTimed runs the engine with a hang watchdog.
func runMappedTimed(t *testing.T, me *MappedEngine, goal int, label string) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- me.Run(goal) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("%s: run hung", label)
	}
}

// hotDWorkers locates the "hot" and "d" filters and returns their workers
// under the given assignment.
func hotDWorkers(t *testing.T, g *ir.Graph, assign []int) (hotW, dW int) {
	t.Helper()
	hotW, dW = -1, -1
	for _, n := range g.Nodes {
		if n.Kind != ir.NodeFilter {
			continue
		}
		switch faults.BaseName(n.Name) {
		case "hot":
			hotW = assign[n.ID]
		case "d":
			dW = assign[n.ID]
		}
	}
	if hotW < 0 || dW < 0 {
		t.Fatal("hot or d filter missing from rewritten graph")
	}
	return hotW, dW
}

// TestMappedElasticImbalanceReplan: two filters whose measured cost dwarfs
// their static estimates start on the same worker; the imbalance detector
// trips, the candidate packing halves the predicted bottleneck (clearing
// the improvement gate), and the controller separates them — mid-run, with
// bit-identical output and a final state byte-equal to a run that was
// never re-planned.
func TestMappedElasticImbalanceReplan(t *testing.T) {
	mb := buildMapped(t, skewProg, partition.StratTask)
	ref := buildMapped(t, skewProg, partition.StratTask)

	// Force the stale plan's mistake: both soon-to-be-hot filters on
	// worker 0, everything else spread over the rest.
	w := 1
	for _, n := range mb.g2.Nodes {
		if n.Kind != ir.NodeFilter {
			continue
		}
		switch faults.BaseName(n.Name) {
		case "hot", "d":
			mb.assign[n.ID] = 0
		default:
			mb.assign[n.ID] = w
			w = w%3 + 1
		}
	}

	re := ref.engine(t, Options{})
	me := mb.engine(t, Options{Elastic: true, ElasticWindow: 4, CheckpointEvery: 2})
	for _, e := range []*MappedEngine{re, me} {
		if err := e.OverrideWork("hot", spinGain(5, 50000)); err != nil {
			t.Fatal(err)
		}
		if err := e.OverrideWork("d", spinGain(7, 50000)); err != nil {
			t.Fatal(err)
		}
	}
	const goal = 64
	runMappedTimed(t, re, goal, "reference")
	runMappedTimed(t, me, goal, "elastic")

	if me.Replans() < 1 {
		t.Fatalf("imbalance never tripped a re-plan (replans=%d)", me.Replans())
	}
	// After the re-plan the two hot filters no longer share a worker: their
	// measured work dominates every other node's, so any cut that minimizes
	// the heaviest worker's measured load splits them apart.
	hotW, dW := hotDWorkers(t, mb.g2, me.Assign)
	if hotW == dW {
		t.Errorf("after re-plan, hot and d still share worker %d", hotW)
	}
	compareOuts(t, ref.outs, mb.outs, "elastic imbalance")
	if !bytes.Equal(mappedCkptBytes(t, me, goal), mappedCkptBytes(t, re, goal)) {
		t.Fatal("final images diverged after elastic re-plan")
	}
}

// TestMappedElasticReplanHysteresis: the improvement gate. When one
// dominant filter already owns its worker, the detector's max/mean ratio
// stays tripped forever, but no packing can lift the bottleneck — the
// controller must hold still instead of churning through equivalent
// re-plans at every barrier.
func TestMappedElasticReplanHysteresis(t *testing.T) {
	mb := buildMapped(t, skewProg, partition.StratTask)
	// Start from an already-converged shape: hot alone on worker 0.
	w := 1
	for _, n := range mb.g2.Nodes {
		if n.Kind != ir.NodeFilter {
			continue
		}
		if faults.BaseName(n.Name) == "hot" {
			mb.assign[n.ID] = 0
		} else {
			mb.assign[n.ID] = w
			w = w%3 + 1
		}
	}
	me := mb.engine(t, Options{Elastic: true, ElasticWindow: 2, CheckpointEvery: 2})
	if err := me.OverrideWork("hot", spinGain(5, 50000)); err != nil {
		t.Fatal(err)
	}
	runMappedTimed(t, me, 64, "hysteresis")
	if me.Replans() != 0 {
		t.Fatalf("controller re-planned %d times with nothing to gain", me.Replans())
	}
}

// TestMappedElasticScheduledResize: a mid-run worker-count change via
// ResizeAt/ResizeTo completes with bit-identical output on both the
// lockstep and the pipelined engine.
func TestMappedElasticScheduledResize(t *testing.T) {
	for _, strat := range []partition.Strategy{partition.StratTask, partition.StratSWP} {
		for _, target := range []int{2, 1, 3} {
			t.Run(fmt.Sprintf("%s/to%d", strat, target), func(t *testing.T) {
				build := func() *ir.Program { return apps.FMRadio(2, 8) }
				mb := buildMapped(t, build, strat)
				ref := buildMapped(t, build, strat)

				re := ref.engine(t, Options{})
				me := mb.engine(t, Options{Elastic: true, CheckpointEvery: 5,
					ResizeAt: 10, ResizeTo: target})
				const goal = 40
				runMappedTimed(t, re, goal, "reference")
				runMappedTimed(t, me, goal, "resized")

				if me.Workers != target {
					t.Fatalf("Workers = %d after resize, want %d", me.Workers, target)
				}
				if me.Replans() < 1 {
					t.Fatal("scheduled resize never re-planned")
				}
				compareOuts(t, ref.outs, mb.outs, "scheduled resize")
				if !bytes.Equal(mappedCkptBytes(t, me, goal), mappedCkptBytes(t, re, goal)) {
					t.Fatal("final images diverged after resize")
				}
			})
		}
	}
}

// TestMappedElasticResizeAPI: the Resize entry point — pre-run requests are
// consumed at the first barrier; requests are rejected without Elastic and
// for impossible worker counts.
func TestMappedElasticResizeAPI(t *testing.T) {
	mb := buildMapped(t, func() *ir.Program { return apps.FMRadio(2, 8) }, partition.StratCoarseData)
	me := mb.engine(t, Options{Elastic: true, CheckpointEvery: 2})
	if err := me.Resize(0); err == nil {
		t.Fatal("Resize(0) accepted")
	}
	if err := me.Resize(2); err != nil {
		t.Fatal(err)
	}
	runMappedTimed(t, me, 20, "resize API")
	if me.Workers != 2 {
		t.Fatalf("Workers = %d, want 2", me.Workers)
	}

	ref := buildMapped(t, func() *ir.Program { return apps.FMRadio(2, 8) }, partition.StratCoarseData)
	re := ref.engine(t, Options{})
	runMappedTimed(t, re, 20, "reference")
	compareOuts(t, ref.outs, mb.outs, "resize API")

	plain := buildMapped(t, func() *ir.Program { return apps.FMRadio(2, 8) }, partition.StratCoarseData)
	pe := plain.engine(t, Options{})
	if err := pe.Resize(2); err == nil {
		t.Fatal("Resize accepted without Options.Elastic")
	}
	if pe.Replans() != 0 {
		t.Fatal("non-elastic engine reports replans")
	}
}

// TestMappedElasticCrashDuringReplan: a worker crash in the epoch right
// after an elastic re-plan rolls back to the re-plan's own barrier image
// (the controller restores from the just-taken coordinated checkpoint, so
// that image is the rollback target) and the run still completes with
// bit-identical output on the reduced worker set.
func TestMappedElasticCrashDuringReplan(t *testing.T) {
	build := func() *ir.Program { return apps.FMRadio(2, 8) }
	mb := buildMapped(t, build, partition.StratTask)
	ref := buildMapped(t, build, partition.StratTask)

	re := ref.engine(t, Options{})
	// Checkpoint every iteration, like the crash-recovery machinery itself
	// does when worker faults are scheduled: the rollback target is then
	// the crash iteration's own barrier, so no sink output replays.
	me := mb.engine(t, Options{Elastic: true, CheckpointEvery: 1,
		ResizeAt: 6, ResizeTo: 3,
		Faults: mustPlan(t, "crash:worker1@7")})
	const goal = 30
	runMappedTimed(t, re, goal, "reference")
	runMappedTimed(t, me, goal, "crash during replan")

	if me.Replans() < 1 {
		t.Fatal("resize never re-planned")
	}
	if me.Workers != 2 {
		t.Fatalf("Workers = %d, want 2 (resized to 3, then one crashed)", me.Workers)
	}
	st := me.Degraded()["worker1"]
	if st.Crashes != 1 {
		t.Fatalf("worker1 crashes = %d, want 1", st.Crashes)
	}
	compareOuts(t, ref.outs, mb.outs, "crash during replan")
	if !bytes.Equal(mappedCkptBytes(t, me, goal), mappedCkptBytes(t, re, goal)) {
		t.Fatal("final images diverged after crash-during-replan")
	}
}

// TestMappedElasticOptionValidation: malformed elastic options fail engine
// construction instead of misbehaving at the first barrier.
func TestMappedElasticOptionValidation(t *testing.T) {
	mb := buildMapped(t, func() *ir.Program { return apps.FMRadio(2, 8) }, partition.StratTask)
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"negative window", Options{Elastic: true, ElasticWindow: -3}, "window"},
		{"threshold below 1", Options{Elastic: true, ElasticThreshold: 0.5}, "threshold"},
		{"resize-at without resize-to", Options{Elastic: true, ResizeAt: 5}, "together"},
		{"resize-to without resize-at", Options{Elastic: true, ResizeTo: 2}, "together"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.Replan = packer(mb.plan, mb.g2, mb.s2)
			_, err := NewMappedOpts(mb.g2, mb.s2, mb.assign, mb.workers, tc.opts)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error mentioning %q", err, tc.want)
			}
		})
	}
}

// TestMappedOverrideWorkErrors: overriding a filter that fusion folded into
// a segment is rejected with an error naming the segment to target instead;
// unknown names are rejected outright.
func TestMappedOverrideWorkErrors(t *testing.T) {
	mb := buildMapped(t, func() *ir.Program { return apps.FMRadio(2, 8) }, partition.StratCoarseData)
	me := mb.engine(t, Options{})
	noop := func(in, out wfunc.Tape) {}
	if err := me.OverrideWork("NoSuchFilter", noop); err == nil {
		t.Fatal("unknown filter accepted")
	}
	// Find a fused segment and one of its constituents.
	var segment, constituent string
	for _, n := range mb.g2.Nodes {
		if n.Kind != ir.NodeFilter {
			continue
		}
		base := faults.BaseName(n.Name)
		if parts := faults.SplitConstituents(base); len(parts) > 1 {
			segment, constituent = base, parts[0]
			break
		}
	}
	if segment == "" {
		t.Skip("strategy produced no fused segments")
	}
	err := me.OverrideWork(constituent, noop)
	if err == nil || !strings.Contains(err.Error(), segment) {
		t.Fatalf("overriding fused constituent %q: got %v, want error naming segment %q", constituent, err, segment)
	}
	if err := me.OverrideWork(segment, noop); err != nil {
		t.Fatalf("overriding the segment itself: %v", err)
	}
}

// FuzzElasticReplan: for arbitrary resize barriers, worker-count targets,
// and strategies (lockstep and pipelined), an elastic re-plan mid-run keeps
// the output bit-identical and the final engine image byte-equal to an
// uninterrupted run.
func FuzzElasticReplan(f *testing.F) {
	f.Add(int64(5), 2, false)
	f.Add(int64(1), 1, false)
	f.Add(int64(12), 3, true)
	f.Add(int64(3), 1, true)
	f.Add(int64(17), 4, false)
	f.Fuzz(func(t *testing.T, resizeAt int64, target int, pipelined bool) {
		if resizeAt < 1 || resizeAt > 20 || target < 1 || target > 4 {
			t.Skip()
		}
		strat := partition.StratTask
		if pipelined {
			strat = partition.StratSWP
		}
		build := func() *ir.Program { return apps.FMRadio(2, 8) }
		mb := buildMapped(t, build, strat)
		ref := buildMapped(t, build, strat)

		re := ref.engine(t, Options{})
		me := mb.engine(t, Options{Elastic: true, CheckpointEvery: 2,
			ResizeAt: resizeAt, ResizeTo: target})
		const goal = 24
		runMappedTimed(t, re, goal, "reference")
		runMappedTimed(t, me, goal, "resized")

		if me.Workers != target {
			t.Fatalf("Workers = %d, want %d", me.Workers, target)
		}
		compareOuts(t, ref.outs, mb.outs, "fuzz resize")
		if !bytes.Equal(mappedCkptBytes(t, me, goal), mappedCkptBytes(t, re, goal)) {
			t.Fatal("final images diverged")
		}
	})
}
