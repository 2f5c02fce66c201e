package exec

import (
	"bytes"
	"testing"
	"time"

	"streamit/internal/apps"
	"streamit/internal/ir"
	"streamit/internal/partition"
)

// threeLevelProg is the minimal pipelined shape: one node per stage level,
// so a pipelined run at goal=1 is all prologue and epilogue — the segment
// never reaches a steady middle and every firing happens during skew
// build-up or drain.
func threeLevelProg() *ir.Program {
	return &ir.Program{Name: "three", Top: ir.Pipe("main",
		rampFilter("src"),
		gainFilter("g", 10),
		nullSink("snk", 1))}
}

// TestSWPShortGoal: pipelined runs whose goal is smaller than the pipeline
// depth (goal < levels, so the segment is pure prologue+drain) complete
// cleanly, drain every in-flight item, and match the sequential engine's
// output and final state byte-for-byte. Covers a plain 3-level pipeline and
// the three pipelined app families (deep chain, feedback cluster, teleport
// messaging), with and without coordinated checkpoints.
func TestSWPShortGoal(t *testing.T) {
	cases := []struct {
		name  string
		build func() *ir.Program
	}{
		{"ThreeLevel", threeLevelProg},
		{"FMRadio", func() *ir.Program { return apps.FMRadio(2, 8) }},
		{"Reverb", func() *ir.Program { return apps.Reverb(8, 0.6) }},
		{"FreqHop", func() *ir.Program { return apps.FreqHoppingRadio(true) }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, goal := range []int{1, 2, 3} {
				for _, ckpt := range []int{0, 1} {
					mb := buildMapped(t, tc.build, partition.StratSWP)
					refB := buildMapped(t, tc.build, partition.StratSWP)
					ref, err := NewFromGraphBackend(refB.g2, refB.s2, BackendVM)
					if err != nil {
						t.Fatal(err)
					}
					if err := ref.Run(goal); err != nil {
						t.Fatal(err)
					}

					me := mb.engine(t, Options{CheckpointEvery: ckpt})
					done := make(chan error, 1)
					go func() { done <- me.Run(goal) }()
					select {
					case err := <-done:
						if err != nil {
							t.Fatalf("goal=%d ckpt=%d: %v", goal, ckpt, err)
						}
					case <-time.After(10 * time.Second):
						t.Fatalf("goal=%d ckpt=%d: pipelined run hung", goal, ckpt)
					}
					compareOuts(t, refB.outs, mb.outs, "short goal")
					img := mappedCkptBytes(t, me, int64(goal))
					var rbuf bytes.Buffer
					if err := ref.WriteCheckpoint(&rbuf, int64(goal)); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(img, rbuf.Bytes()) {
						t.Fatalf("goal=%d ckpt=%d: final images differ from sequential", goal, ckpt)
					}
				}
			}
		})
	}
}

// TestSWPGoalOneCrash: a worker crash during the prologue of a goal=1
// pipelined run (nothing but skew build-up in flight) recovers onto the
// survivors and still produces the sequential output.
func TestSWPGoalOneCrash(t *testing.T) {
	mb := buildMapped(t, func() *ir.Program { return apps.FMRadio(2, 8) }, partition.StratSWP)
	refB := buildMapped(t, func() *ir.Program { return apps.FMRadio(2, 8) }, partition.StratSWP)
	ref, err := NewFromGraphBackend(refB.g2, refB.s2, BackendVM)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(1); err != nil {
		t.Fatal(err)
	}
	me := mb.engine(t, Options{CheckpointEvery: 1, Faults: mustPlan(t, "crash:worker1@2")})
	done := make(chan error, 1)
	go func() { done <- me.Run(1) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("goal=1 crash run hung")
	}
	if me.Workers != 3 {
		t.Fatalf("engine degraded to %d workers, want 3", me.Workers)
	}
	compareOuts(t, refB.outs, mb.outs, "goal=1 crash")
}

// TestSWPShortSegmentRestore: a skewed checkpoint cut at EVERY cycle of a
// short segment (segIters smaller than the stage batch, so the flush
// schedule never reaches a batch boundary) restores into a fresh engine
// whose continuation completes the run exactly. Sweeps the 3-level
// pipeline exhaustively and spot-checks the 10-level FMRadio at goal=1.
func TestSWPShortSegmentRestore(t *testing.T) {
	cases := []struct {
		name  string
		build func() *ir.Program
		goals []int
	}{
		{"ThreeLevel", threeLevelProg, []int{1, 2, 3, 9}},
		{"FMRadio", func() *ir.Program { return apps.FMRadio(2, 8) }, []int{1}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, goal := range tc.goals {
				// Probe the segment geometry once.
				mb := buildMapped(t, tc.build, partition.StratSWP)
				me := mb.engine(t, Options{})
				if err := me.setup(); err != nil {
					t.Fatal(err)
				}
				me.swp.base, me.swp.segIters = 0, int64(goal)
				total := me.swp.segIters + me.swp.maxStage()

				for cut := int64(1); cut < total; cut++ {
					mb2 := buildMapped(t, tc.build, partition.StratSWP)
					m1 := mb2.engine(t, Options{})
					if err := m1.setup(); err != nil {
						t.Fatal(err)
					}
					m1.swp.base, m1.swp.segIters = 0, int64(goal)
					if err := m1.driveTo(cut); err != nil {
						t.Fatalf("goal=%d cut=%d: %v", goal, cut, err)
					}
					img := mappedCkptBytes(t, m1, 0)

					mb3 := buildMapped(t, tc.build, partition.StratSWP)
					m2 := mb3.engine(t, Options{})
					done := make(chan error, 1)
					go func() { done <- m2.RunFromCheckpoint(img, goal) }()
					select {
					case err := <-done:
						if err != nil {
							t.Fatalf("goal=%d cut=%d resume: %v", goal, cut, err)
						}
					case <-time.After(10 * time.Second):
						t.Fatalf("goal=%d cut=%d: resume hung", goal, cut)
					}
					// Continuation output = full output minus the pre-cut drain.
					full := buildMapped(t, tc.build, partition.StratSWP)
					fe := full.engine(t, Options{})
					if err := fe.Run(goal); err != nil {
						t.Fatal(err)
					}
					for i := range full.outs {
						want := (*full.outs[i])[len(*mb2.outs[i]):]
						got := *mb3.outs[i]
						if len(want) != len(got) {
							t.Fatalf("goal=%d cut=%d sink %d: %d items vs %d", goal, cut, i, len(want), len(got))
						}
						for j := range want {
							if want[j] != got[j] {
								t.Fatalf("goal=%d cut=%d sink %d item %d: %v vs %v", goal, cut, i, j, want[j], got[j])
							}
						}
					}
				}
			}
		})
	}
}
