package exec

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"streamit/internal/apps"
	"streamit/internal/ir"
	"streamit/internal/obs"
	"streamit/internal/partition"
)

// sinkLens records how many items each collector holds.
func sinkLens(outs []*[]float64) []int {
	lens := make([]int, len(outs))
	for i, o := range outs {
		lens[i] = len(*o)
	}
	return lens
}

// tailIs asserts that what every collector of got gained since from is, bit
// for bit, want's stretch of the same collector.
func tailIs(t *testing.T, want [][]float64, got []*[]float64, from []int, label string) {
	t.Helper()
	for i, o := range got {
		tail := (*o)[from[i]:]
		if len(tail) != len(want[i]) {
			t.Fatalf("%s: sink %d gained %d items, want %d", label, i, len(tail), len(want[i]))
		}
		for j := range tail {
			if math.Float64bits(tail[j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%s: sink %d item %d: %v, want %v", label, i, j, tail[j], want[i][j])
			}
		}
	}
}

// since copies what every collector gained since from.
func since(outs []*[]float64, from []int) [][]float64 {
	got := make([][]float64, len(outs))
	for i, o := range outs {
		got[i] = append([]float64(nil), (*o)[from[i]:]...)
	}
	return got
}

// doubled asserts that profile twice holds exactly two of once's counts:
// firings and tape traffic, peeks included.
func doubled(t *testing.T, once, twice []obs.FilterProfile, label string) {
	t.Helper()
	if len(once) != len(twice) {
		t.Fatalf("%s: %d profiled nodes, then %d", label, len(once), len(twice))
	}
	for i, a := range once {
		b := twice[i]
		if b.Name != a.Name || b.Firings != 2*a.Firings || b.Pushed != 2*a.Pushed ||
			b.Popped != 2*a.Popped || b.Peeked != 2*a.Peeked {
			t.Fatalf("%s: node %s after two runs fired/pushed/popped/peeked %d/%d/%d/%d, after one %d/%d/%d/%d",
				label, a.Name, b.Firings, b.Pushed, b.Popped, b.Peeked, a.Firings, a.Pushed, a.Popped, a.Peeked)
		}
	}
}

// pendingAfterInit is a teleport program whose init schedule leaves a
// message in flight: the peeking sink makes the sender fire during init,
// and its first item triggers a setGain downstream that lands in the
// steady state.
func pendingAfterInit() *ir.Program {
	prog := &ir.Program{Name: "pending"}
	portal := prog.NewPortal("gainPortal")
	amp := ampFilter("amp")
	portal.Register(amp)
	snk := &ir.Filter{Kernel: wfuncKernel("snk", 3, 1, 0, 1), In: ir.TypeFloat, Out: ir.TypeVoid}
	prog.Top = ir.Pipe("main", rampFilter("src"), triggerSender("trig", portal.ID, 0, 3, false), amp, snk)
	return prog
}

// TestMappedRunRestartsTheStream pins what Run means on an engine that has
// run before: the stream restarts from initialization. A second Run(n) on
// the same engine appends bit-identical sink items, leaves a byte-identical
// checkpoint image, and adds exactly one Run's worth of profile counts,
// init phase included — over the suite under every strategy on both
// backends, and under task+swp over two teleport programs (one with a
// message pending after init) and a feedback loop. Two legs pin the
// entries around it: a Run after a RestoreCheckpoint restarts from init,
// not from the image; and Prepare, the shard path's reset, may be called
// twice before StepEpoch.
func TestMappedRunRestartsTheStream(t *testing.T) {
	const n = confIters
	strategies := []partition.Strategy{partition.StratTask, partition.StratFineData,
		partition.StratCoarseData, partition.StratSWP, partition.StratCombined}
	type tcase struct {
		name   string
		build  func() *ir.Program
		strats []partition.Strategy
		legs   bool
	}
	var cases []tcase
	for _, app := range apps.Suite() {
		cases = append(cases, tcase{app.Name, app.Build, strategies, true})
	}
	swpOnly := []partition.Strategy{partition.StratSWP}
	cases = append(cases,
		tcase{"FreqHoppingRadio", func() *ir.Program { return apps.FreqHoppingRadio(true) }, swpOnly, false},
		tcase{"PendingAfterInit", pendingAfterInit, swpOnly, false},
		tcase{"Reverb", func() *ir.Program { return apps.Reverb(8, 0.6) }, swpOnly, false})
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, strat := range tc.strats {
				mb := buildMapped(t, tc.build, strat)
				for _, backend := range []Backend{BackendVM, BackendInterp} {
					label := fmt.Sprintf("%s/%v", strat, backend)
					from := sinkLens(mb.outs)
					me := mb.engine(t, Options{Backend: backend, Profile: true})
					if err := me.Run(n); err != nil {
						t.Fatalf("%s: first run: %v", label, err)
					}
					mark := sinkLens(mb.outs)
					first := since(mb.outs, from)
					img := mappedCkptBytes(t, me, n)
					once := me.Profile().Snapshot()
					if err := me.Run(n); err != nil {
						t.Fatalf("%s: second run: %v", label, err)
					}
					tailIs(t, first, mb.outs, mark, label+": second run")
					if again := mappedCkptBytes(t, me, n); !bytes.Equal(img, again) {
						t.Fatalf("%s: image after the second run differs from the first (%d vs %d bytes)", label, len(again), len(img))
					}
					doubled(t, once, me.Profile().Snapshot(), label)
				}
			}
			if !tc.legs {
				return
			}

			// The reference: one fresh engine's Run(n).
			const strat = partition.StratCoarseData
			ref := buildMapped(t, tc.build, strat)
			re := ref.engine(t, Options{})
			if err := re.Run(n); err != nil {
				t.Fatal(err)
			}
			want := since(ref.outs, make([]int, len(ref.outs)))
			wantImg := mappedCkptBytes(t, re, n)

			t.Run("RestoreThenRun", func(t *testing.T) {
				// The image restored is another engine's mid-run barrier.
				src := buildMapped(t, tc.build, strat).engine(t, Options{})
				if err := src.Run(2); err != nil {
					t.Fatal(err)
				}
				img := mappedCkptBytes(t, src, 2)
				mb := buildMapped(t, tc.build, strat)
				me := mb.engine(t, Options{})
				if _, err := me.RestoreCheckpoint(img); err != nil {
					t.Fatal(err)
				}
				for run := 1; run <= 2; run++ {
					label := fmt.Sprintf("run %d after the restore", run)
					from := sinkLens(mb.outs)
					if err := me.Run(n); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					tailIs(t, want, mb.outs, from, label)
					if got := mappedCkptBytes(t, me, n); !bytes.Equal(wantImg, got) {
						t.Fatalf("%s: image differs from a fresh engine's Run", label)
					}
				}
			})

			t.Run("PrepareTwiceThenStep", func(t *testing.T) {
				mb := buildMapped(t, tc.build, strat)
				me := mb.engine(t, Options{})
				for round := 1; round <= 2; round++ {
					label := fmt.Sprintf("round %d", round)
					for i := 0; i < 2; i++ {
						if err := me.Prepare(); err != nil {
							t.Fatalf("%s: prepare: %v", label, err)
						}
					}
					from := sinkLens(mb.outs)
					if err := me.StepEpoch(n); err != nil {
						t.Fatalf("%s: step: %v", label, err)
					}
					tailIs(t, want, mb.outs, from, label)
					if got := mappedCkptBytes(t, me, n); !bytes.Equal(wantImg, got) {
						t.Fatalf("%s: image differs from a fresh engine's Run", label)
					}
				}
			})
		})
	}
}
