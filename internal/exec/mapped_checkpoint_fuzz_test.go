package exec

import (
	"bytes"
	"testing"
	"time"

	"streamit/internal/apps"
	"streamit/internal/ir"
	"streamit/internal/partition"
	"streamit/internal/sched"
)

// mappedFuzzTopology builds one fixed rewritten graph the fuzz target's
// engines share (the graph is read-only at run time; all mutable state is
// per-engine). The strategy picks lockstep vs pipelined rewrites.
func mappedFuzzTopology(tb testing.TB, strat partition.Strategy) (*ir.Graph, *sched.Schedule, []int, int, *partition.StagePlan) {
	tb.Helper()
	prog := apps.FMRadio(2, 8)
	g, err := ir.Flatten(prog)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := sched.Compute(g)
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := partition.BuildExecPlan(prog, g, s, partition.ExecPlanOptions{Strategy: strat, Workers: 3})
	if err != nil {
		tb.Fatal(err)
	}
	g2, err := ir.Flatten(plan.Program)
	if err != nil {
		tb.Fatal(err)
	}
	s2, err := sched.Compute(g2)
	if err != nil {
		tb.Fatal(err)
	}
	var st *partition.StagePlan
	if plan.Pipelined {
		if st, err = partition.PipelineStages(g2); err != nil {
			tb.Fatal(err)
		}
	}
	return g2, s2, plan.Assign(g2, s2), plan.Workers, st
}

// FuzzMappedCheckpointRestore: the mapped engine's RestoreCheckpoint must
// reject arbitrary, corrupted, or truncated bytes with an error — never
// panic, never deadlock a worker, never install inconsistent queue
// counters. Every input is thrown at both a lockstep and a pipelined
// engine (the latter exercises the SWPS stage-trailer decoder and the
// queue/staging split). Seeds include a valid lockstep image, a valid
// mid-segment stage-skewed image, and targeted corruptions of both —
// including every byte of the skewed image's SWPS trailer and trailer
// truncations — so the fuzzer starts deep in the format.
func FuzzMappedCheckpointRestore(f *testing.F) {
	g2, s2, assign, workers, _ := mappedFuzzTopology(f, partition.StratCoarseData)
	src, err := NewMappedOpts(g2, s2, assign, workers, Options{})
	if err != nil {
		f.Fatal(err)
	}
	if err := src.Run(2); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.WriteCheckpoint(&buf, 2); err != nil {
		f.Fatal(err)
	}
	valid := bytes.Clone(buf.Bytes())
	f.Add(valid)
	// Later barriers: a fresh engine's rings place their items from other
	// offsets, some across the end of their storage.
	for n := 3; n <= 10; n++ {
		if err := src.Run(n); err != nil {
			f.Fatal(err)
		}
		buf.Reset()
		if err := src.WriteCheckpoint(&buf, int64(n)); err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Clone(buf.Bytes()))
	}
	f.Add([]byte{})
	f.Add([]byte("STRMCKPT"))
	f.Add(valid[:len(valid)/2])
	for _, off := range []int{8, 12, 20, 28, 36, len(valid) - 9} {
		if off >= 0 && off < len(valid) {
			mut := append([]byte(nil), valid...)
			mut[off] ^= 0xff
			f.Add(mut)
		}
	}

	// Pipelined topology and a stage-skewed mid-segment image. The SWPS
	// trailer sits at the tail (before the 8-byte footer hash); corrupt and
	// truncate every byte of that stretch to hammer the trailer decoder.
	pg2, ps2, passign, pworkers, pst := mappedFuzzTopology(f, partition.StratSWP)
	pmb := &mappedBuild{g2: pg2, s2: ps2, assign: passign, workers: pworkers, stages: pst}
	skewed, _ := skewedCheckpoint(f, pmb, 8, 11)
	f.Add(skewed)
	trailer := len(skewed) - 60 // generous overshoot of trailer + footer
	if trailer < 0 {
		trailer = 0
	}
	for off := trailer; off < len(skewed); off++ {
		mut := append([]byte(nil), skewed...)
		mut[off] ^= 0xff
		f.Add(mut)
		f.Add(skewed[:off])
	}

	popts := Options{Watchdog: 500 * time.Millisecond, Stages: pst.Levels, StageClusters: pst.Clusters}
	f.Fuzz(func(t *testing.T, data []byte) {
		me, err := NewMappedOpts(g2, s2, assign, workers, Options{Watchdog: 500 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		it, rerr := me.RestoreCheckpoint(data)
		if rerr == nil {
			if it < 0 {
				t.Fatalf("accepted image with negative iteration %d", it)
			}
			if runErr := me.StepEpoch(1); runErr != nil {
				// A structured error is fine (e.g. a restored state that makes a
				// kernel fault surfaces as an ExecError or DeadlockError); a
				// panic or a hang would have failed already.
				t.Logf("resumed run errored (acceptably): %v", runErr)
			}
		}

		pe, err := NewMappedOpts(pg2, ps2, passign, pworkers, popts)
		if err != nil {
			t.Fatal(err)
		}
		it, rerr = pe.RestoreCheckpoint(data)
		if rerr != nil {
			return
		}
		if it < 0 {
			t.Fatalf("pipelined engine accepted image with negative iteration %d", it)
		}
		if runErr := pe.StepEpoch(1); runErr != nil {
			t.Logf("pipelined resumed run errored (acceptably): %v", runErr)
		}
	})
}
