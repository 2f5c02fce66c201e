package exec

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"streamit/internal/apps"
	"streamit/internal/ir"
	"streamit/internal/partition"
	"streamit/internal/sched"
)

// The pipelined strategies lift the mapped engine's two historical
// restrictions — feedback loops and teleport messaging — by hosting them
// in single-worker stage clusters. These tests run both restricted
// workload classes through the full conformance harness (bit-identical
// sink streams AND bit-identical engine state vs the sequential engine)
// under both pipelined strategies and both backends.

func pipelinedConformance(t *testing.T, app apps.App) {
	t.Helper()
	for _, strat := range []partition.Strategy{partition.StratSWP, partition.StratCombined} {
		for _, backend := range []Backend{BackendVM, BackendInterp} {
			t.Run(fmt.Sprintf("%s/%v", strat, backend), func(t *testing.T) {
				runMappedConformance(t, app, strat, backend)
			})
		}
	}
}

// TestMappedPipelinedFeedback: a feedback-comb program (unrunnable on the
// lockstep mapped engine) runs pipelined and matches the sequential engine
// exactly.
func TestMappedPipelinedFeedback(t *testing.T) {
	pipelinedConformance(t, apps.App{Name: "Reverb",
		Build: func() *ir.Program { return apps.Reverb(8, 0.6) }})
}

// TestMappedPipelinedTeleport: the frequency-hopping radio's teleport
// messaging (upstream setFreq with latency constraints) runs pipelined —
// the messaging hull forms one stage cluster — and matches the sequential
// engine exactly, including delivery timing (asserted through state
// equality; a mistimed retune changes the mixing table and every
// downstream sample).
func TestMappedPipelinedTeleport(t *testing.T) {
	pipelinedConformance(t, apps.App{Name: "FreqHoppingRadio",
		Build: func() *ir.Program { return apps.FreqHoppingRadio(true) }})
}

// TestMappedLockstepStillGated: without a pipelined plan the mapped
// constructor still rejects feedback and messaging graphs (the lockstep
// schedule cannot host them), steering callers to a pipelined plan.
func TestMappedLockstepStillGated(t *testing.T) {
	cases := []struct {
		name string
		prog *ir.Program
	}{
		{"feedback", apps.Reverb(4, 0.5)},
		{"teleport", apps.FreqHoppingRadio(true)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := ir.Flatten(tc.prog)
			if err != nil {
				t.Fatal(err)
			}
			s, err := sched.Compute(g)
			if err != nil {
				t.Fatal(err)
			}
			assign := make([]int, len(g.Nodes))
			if _, err := NewMappedOpts(g, s, assign, 1, Options{Backend: BackendVM}); err == nil {
				t.Fatal("lockstep mapped constructor accepted a graph it cannot schedule")
			}
		})
	}
}

// TestMappedSWPStageSkew sanity-checks that pipelined plans actually skew:
// the FM radio's stage schedule must have more than one level (otherwise
// the suite would be exercising degenerate, skew-free pipelining).
func TestMappedSWPStageSkew(t *testing.T) {
	prog := apps.FMRadio(4, 16)
	g, err := ir.Flatten(prog)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	st, err := partition.PipelineStages(g)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumLevels < 3 {
		t.Fatalf("FMRadio staged into %d levels; expected a deep pipeline", st.NumLevels)
	}
	me, err := NewMappedOpts(g, s, defaultAssign(g, 3), 3,
		Options{Backend: BackendVM, Stages: st.Levels, StageClusters: st.Clusters})
	if err != nil {
		t.Fatal(err)
	}
	if me.swp.maxStage() != int64(st.NumLevels-1)*StageBatch {
		t.Fatalf("pipelined engine's last stage offset is %d, want %d levels of %d cycles", me.swp.maxStage(), st.NumLevels-1, StageBatch)
	}
	if err := me.Run(3); err != nil {
		t.Fatal(err)
	}
}

// TestSWPBlocks: a pipelined cycle covers up to StageBatch iterations, cut
// at the next batch boundary, at epoch ends and, per stage level, at the
// segment's end, so run lengths and checkpoint intervals that leave partial
// blocks must not move a bit. Over the suite under task+swp and
// task+data+swp, runs of 1, 3, 8, 13 and 21 iterations, and 21-iteration
// runs with a checkpoint every 1, 3, 8 and 13, give sink streams
// bit-identical to the sequential engine's, every barrier image byte-equal
// to the one the same plan writes one iteration per cycle, and a final
// image byte-equal to the sequential engine's.
func TestSWPBlocks(t *testing.T) {
	lengths := []int{1, 3, 8, 13, 21}
	const total = 21
	for _, app := range apps.Suite() {
		for _, strat := range []partition.Strategy{partition.StratSWP, partition.StratCombined} {
			app, strat := app, strat
			t.Run(fmt.Sprintf("%s/%s", app.Name, strat), func(t *testing.T) {
				t.Parallel()
				sb := buildMapped(t, app.Build, strat)
				se, err := NewFromGraphBackend(sb.g2, sb.s2, BackendVM)
				if err != nil {
					t.Fatal(err)
				}
				if err := se.RunInit(); err != nil {
					t.Fatal(err)
				}
				seqImg := map[int][]byte{}
				prefix := map[int][]int{}
				done := 0
				for _, n := range lengths {
					if err := se.RunSteady(n - done); err != nil {
						t.Fatal(err)
					}
					done = n
					seqImg[n], prefix[n] = checkpointBytes(t, se, int64(n)), sinkLens(sb.outs)
				}
				stream := since(sb.outs, make([]int, len(sb.outs)))

				mb := buildMapped(t, app.Build, strat)
				if mb.stages == nil {
					t.Fatal("plan is not pipelined")
				}
				blocked, single := mb.engine(t, Options{}), mb.engine(t, Options{})
				for c := int64(1); c <= 256; c++ { // a cut at every cycle position
					single.swp.cuts = append(single.swp.cuts, c)
				}
				for _, c := range []struct{ n, every int }{
					{1, 0}, {3, 0}, {8, 0}, {13, 0}, {21, 0}, {total, 1}, {total, 3}, {total, 8}, {total, 13},
				} {
					label := fmt.Sprintf("%d iterations, checkpoint every %d", c.n, c.every)
					from := sinkLens(mb.outs)
					got := driveBarriers(t, blocked, c.n, c.every)
					want := make([][]float64, len(stream))
					for i := range stream {
						want[i] = stream[i][:prefix[c.n][i]]
					}
					tailIs(t, want, mb.outs, from, label)
					ref := driveBarriers(t, single, c.n, c.every)
					if len(got) != len(ref) {
						t.Fatalf("%s: %d barriers, one iteration per cycle has %d", label, len(got), len(ref))
					}
					for i := range got {
						if !bytes.Equal(got[i], ref[i]) {
							t.Fatalf("%s: barrier %d image differs from one iteration per cycle's", label, i)
						}
					}
					if !bytes.Equal(mappedCkptBytes(t, blocked, int64(c.n)), seqImg[c.n]) {
						t.Fatalf("%s: final image differs from the sequential engine's", label)
					}
				}
			})
		}
	}
}

// driveBarriers runs a fresh n-iteration segment on me, its epochs every
// cycles long (0: one epoch), with a checkpoint at every barrier, and
// returns the image WriteCheckpoint writes at each barrier.
func driveBarriers(tb testing.TB, me *MappedEngine, n, every int) [][]byte {
	tb.Helper()
	if err := me.setup(); err != nil {
		tb.Fatal(err)
	}
	sw := me.swp
	sw.segIters = int64(n)
	end := sw.segIters + sw.maxStage()
	step := end
	if every > 0 {
		step = int64(every)
	}
	me.CheckpointEvery = every
	var imgs [][]byte
	for at := min(step, end); ; at = min(at+step, end) {
		if err := me.driveTo(at); err != nil {
			tb.Fatal(err)
		}
		if every > 0 {
			imgs = append(imgs, mappedCkptBytes(tb, me, me.iter))
		}
		if at == end {
			return imgs
		}
	}
}

// skewedCheckpoint drives a fresh pipelined engine partway into a
// segIters-iteration segment — stopping at the cycle barrier after the
// given macro-cycle count — and returns the stage-skewed checkpoint image
// along with the engine (still mid-segment). Mirrors Run's pipelined
// branch, but stops before the epilogue so upstream stages have retired
// iterations downstream stages have not, and flush batches sit half-built
// in the staging buffers.
func skewedCheckpoint(tb testing.TB, mb *mappedBuild, segIters, cycles int64) ([]byte, *MappedEngine) {
	tb.Helper()
	me := mb.engine(tb, Options{})
	if err := me.setup(); err != nil {
		tb.Fatal(err)
	}
	sw := me.swp
	if sw == nil {
		tb.Fatal("build is not pipelined; skewed checkpoints need a stage schedule")
	}
	sw.base, sw.segIters = 0, segIters
	if cycles >= segIters+sw.maxStage() {
		tb.Fatalf("cycle %d is not mid-segment (total %d)", cycles, segIters+sw.maxStage())
	}
	if err := me.driveTo(cycles); err != nil {
		tb.Fatal(err)
	}
	return mappedCkptBytes(tb, me, 0), me
}

// stagingResidue sums the items parked in unflushed cross-worker staging
// buffers.
func stagingResidue(me *MappedEngine) int {
	total := 0
	for _, st := range me.stage {
		if st != nil {
			total += st.Len()
		}
	}
	return total
}

// TestMappedPipelinedMidSegmentCheckpoint: a checkpoint taken between
// segment boundaries carries the SWPS stage trailer and the in-flight
// staging residue; it restores into a fresh pipelined engine — rebuilding
// the queue/staging split from the flush schedule — and the resumed run
// finishes the segment bit-identical to an uninterrupted one. The
// sequential engine must refuse the same image. The checkpointed engines
// run an alternating assignment, so the test stages residue whatever the
// planner's cut; the reference runs the planner's, so the final images also
// show that an image does not depend on placement.
func TestMappedPipelinedMidSegmentCheckpoint(t *testing.T) {
	const segIters, cycles = 16, 11 // 11 = stage(level 1) + 3: three unflushed iterations staged
	build := func() *ir.Program { return apps.FMRadio(2, 8) }

	refB := buildMapped(t, build, partition.StratSWP)
	ref := refB.engine(t, Options{})
	if err := ref.Run(segIters); err != nil {
		t.Fatal(err)
	}
	want := mappedCkptBytes(t, ref, segIters)

	intB := buildMapped(t, build, partition.StratSWP)
	intB.assign = alternateAssign(t, intB.g2, intB.workers)
	img, first := skewedCheckpoint(t, intB, segIters, cycles)
	if got := stagingResidue(first); got == 0 {
		t.Fatal("mid-segment barrier has no staging residue; the checkpoint exercises nothing")
	}

	// Inspection restore: the split must land items back in staging.
	probe := intB.engine(t, Options{})
	if it, err := probe.RestoreCheckpoint(img); err != nil {
		t.Fatalf("skewed restore: %v", err)
	} else if it >= segIters || it < 0 {
		t.Fatalf("skewed image reports %d retired iterations, want mid-segment", it)
	}
	if got, want := stagingResidue(probe), stagingResidue(first); got != want {
		t.Fatalf("restored staging residue %d items, checkpointed engine holds %d", got, want)
	}

	// Resume restore: finish the segment, outputs bit-identical.
	resumed := intB.engine(t, Options{})
	if err := resumed.RunFromCheckpoint(img, segIters); err != nil {
		t.Fatalf("resume: %v", err)
	}
	compareOuts(t, refB.outs, intB.outs, "mid-segment resume")
	if got := mappedCkptBytes(t, resumed, segIters); !bytes.Equal(want, got) {
		t.Fatalf("resumed final state differs from uninterrupted run (%d vs %d bytes)", len(want), len(got))
	}

	// Restore onto a different assignment of the same plan, as a re-plan
	// does: a source that fires more than once per iteration sat beside its
	// consumer when the image was taken mid-prologue (no staging, the whole
	// edge in one queue) and is on another worker now, so the restore must
	// carve whole iterations — Reps firings each — back out as the residue.
	sortB := buildMapped(t, func() *ir.Program { return apps.BitonicSort(16) }, partition.StratSWP)
	sortRef := sortB.engine(t, Options{})
	if err := sortRef.Run(segIters); err != nil {
		t.Fatal(err)
	}
	movedB := buildMapped(t, func() *ir.Program { return apps.BitonicSort(16) }, partition.StratSWP)
	movedB.assign = alternateAssign(t, movedB.g2, movedB.workers)
	var src *ir.Node
	for _, n := range movedB.g2.Nodes {
		if n.IsSource() {
			src = n
			break
		}
	}
	dst := src.OutEdge().Dst
	if movedB.s2.Reps[src.ID] < 2 {
		t.Fatalf("source %s fires once per iteration; the case needs Reps > 1", src.Name)
	}
	movedB.assign[src.ID] = movedB.assign[dst.ID]
	early, _ := skewedCheckpoint(t, movedB, segIters, 3)
	movedB.assign[src.ID] = (movedB.assign[dst.ID] + 1) % movedB.workers
	moved := movedB.engine(t, Options{})
	if err := moved.RunFromCheckpoint(early, segIters); err != nil {
		t.Fatalf("resume on a re-packed assignment: %v", err)
	}
	if want, got := mappedCkptBytes(t, sortRef, segIters), mappedCkptBytes(t, moved, segIters); !bytes.Equal(want, got) {
		t.Fatalf("resume on a re-packed assignment ends on a different state (%d vs %d bytes)", len(want), len(got))
	}
	compareOuts(t, sortB.outs, movedB.outs, "re-packed resume")

	// A pipelined resume must target the segment the barrier belongs to.
	wrong := intB.engine(t, Options{})
	if err := wrong.RunFromCheckpoint(img, segIters+1); err == nil {
		t.Fatal("pipelined resume accepted a mismatched segment length")
	}

	// The sequential engine cannot host a stage-skewed barrier.
	se, err := NewFromGraphBackend(intB.g2, intB.s2, BackendVM)
	if err != nil {
		t.Fatal(err)
	}
	if err := se.RunFromCheckpoint(img, segIters); err == nil ||
		!strings.Contains(err.Error(), "stage-skewed") {
		t.Fatalf("sequential restore of a skewed image: err = %v, want a stage-skew rejection", err)
	}
}

// TestMappedPipelinedCheckpointGolden pins the stage-skewed on-disk format:
// a mid-segment pipelined checkpoint of a fixed app must match the
// committed golden image byte for byte, and the golden image must restore
// and finish its segment. Regenerate (only on an intentional format
// change) with STREAMIT_UPDATE_GOLDEN=1 go test ./internal/exec -run
// MappedPipelinedCheckpointGolden.
func TestMappedPipelinedCheckpointGolden(t *testing.T) {
	const segIters, cycles = 16, 11
	build := func() *ir.Program { return apps.FMRadio(2, 8) }
	mb := buildMapped(t, build, partition.StratSWP)
	img, _ := skewedCheckpoint(t, mb, segIters, cycles)

	path := filepath.Join("testdata", "mapped_fmradio_swp.ckpt")
	if os.Getenv("STREAMIT_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(img))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden image (regenerate with STREAMIT_UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(want, img) {
		t.Fatalf("pipelined checkpoint format drifted from the golden image (%d vs %d bytes); this breaks saved checkpoints", len(img), len(want))
	}
	fresh := buildMapped(t, build, partition.StratSWP).engine(t, Options{})
	if err := fresh.RunFromCheckpoint(want, segIters); err != nil {
		t.Fatalf("golden image does not restore: %v", err)
	}
}

// TestMappedWorkerCrashMidPrologueSWP: a worker crash during the
// pipeline-fill prologue (cycle 2, before the deepest stage has fired at
// all) rolls back to the last per-cycle snapshot — a stage-skewed or
// segment-start image — re-plans onto the survivors, and completes the
// segment bit-identical to a clean sequential run over the same rewritten
// graph.
func TestMappedWorkerCrashMidPrologueSWP(t *testing.T) {
	const iters = 6
	build := func() *ir.Program { return apps.FMRadio(4, 16) }

	sb := buildMapped(t, build, partition.StratSWP)
	se, err := NewFromGraphBackend(sb.g2, sb.s2, BackendVM)
	if err != nil {
		t.Fatal(err)
	}
	if err := se.Run(iters); err != nil {
		t.Fatal(err)
	}

	mb := buildMapped(t, build, partition.StratSWP)
	me := mb.engine(t, Options{Faults: mustPlan(t, "crash:worker1@2"), CheckpointEvery: 1})
	if me.swp == nil {
		t.Fatal("plan is not pipelined")
	}
	if maxStage := me.swp.maxStage(); maxStage <= 2 {
		t.Fatalf("prologue is only %d cycles; crash at cycle 2 is not mid-prologue", maxStage)
	}
	if err := me.Run(iters); err != nil {
		t.Fatalf("crashed pipelined run did not recover: %v", err)
	}
	if me.Workers != 3 {
		t.Errorf("engine degraded to %d workers, want 3", me.Workers)
	}
	if st := me.Degraded()["worker1"]; st.Injected != 1 || st.Crashes != 1 {
		t.Errorf("worker1 stats = %+v, want 1 injection and 1 crash", st)
	}
	compareOuts(t, sb.outs, mb.outs, "crash mid-prologue")
}

// TestMappedChaosSoakSWP: randomized filter faults on pipelined runs under
// a skip policy stay bit-identical to the supervised sequential engine
// (same deterministic injection schedule); adding a worker crash mid-run
// still completes on the survivors with the crash accounted for.
func TestMappedChaosSoakSWP(t *testing.T) {
	const iters = 6
	app := apps.Suite()[0]
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			spec := fmt.Sprintf("rand:3@%d", seed)
			mb := buildMapped(t, app.Build, partition.StratSWP)
			me := mb.engine(t, Options{Faults: mustPlan(t, spec), OnError: mustPolicies(t, "skip")})
			if err := me.Run(iters); err != nil {
				t.Fatalf("chaos run %s: %v", spec, err)
			}
			sb := buildMapped(t, app.Build, partition.StratSWP)
			se, err := NewFromGraphOpts(sb.g2, sb.s2, Options{Faults: mustPlan(t, spec), OnError: mustPolicies(t, "skip")})
			if err != nil {
				t.Fatal(err)
			}
			if err := se.Run(iters); err != nil {
				t.Fatalf("sequential chaos run %s: %v", spec, err)
			}
			compareOuts(t, sb.outs, mb.outs, spec)

			// Random faults plus a mid-prologue worker crash: per-cycle
			// rollback converges and the run completes on the survivors. (No
			// bit-equality claim: filter faults consumed in the aborted epoch
			// are one-shot and are not re-injected after rollback.)
			crashSpec := fmt.Sprintf("rand:2@%d;crash:worker1@%d", seed, seed)
			cb := buildMapped(t, app.Build, partition.StratSWP)
			ce := cb.engine(t, Options{Faults: mustPlan(t, crashSpec), OnError: mustPolicies(t, "skip")})
			if err := ce.Run(iters); err != nil {
				t.Fatalf("chaos run %s: %v", crashSpec, err)
			}
			if st := ce.Degraded()["worker1"]; st.Crashes != 1 {
				t.Errorf("worker1 stats = %+v, want 1 crash", st)
			}
		})
	}
}

// alternateAssign deals g's nodes round-robin over workers along a
// topological order, keeping PipelineStages clusters whole, so nearly every
// edge crosses workers whatever cut the planner would choose (test helper).
func alternateAssign(tb testing.TB, g *ir.Graph, workers int) []int {
	tb.Helper()
	topo, err := g.TopoOrder()
	if err != nil {
		tb.Fatal(err)
	}
	st, err := partition.PipelineStages(g)
	if err != nil {
		tb.Fatal(err)
	}
	assign := make([]int, len(g.Nodes))
	for i, n := range topo {
		assign[n.ID] = i % workers
	}
	for _, members := range st.Clusters {
		for _, id := range members {
			assign[id] = assign[members[0]]
		}
	}
	return assign
}

// defaultAssign spreads nodes over workers in topological runs, keeping
// PipelineStages clusters intact (test helper).
func defaultAssign(g *ir.Graph, workers int) []int {
	st, err := partition.PipelineStages(g)
	if err != nil {
		panic(err)
	}
	assign := make([]int, len(g.Nodes))
	per := (len(g.Nodes) + workers - 1) / workers
	for i := range assign {
		w := i / per
		if w >= workers {
			w = workers - 1
		}
		assign[i] = w
	}
	for _, members := range st.Clusters {
		for _, id := range members {
			assign[id] = assign[members[0]]
		}
	}
	return assign
}
