package exec

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"streamit/internal/apps"
	"streamit/internal/obs"
	"streamit/internal/partition"
)

// TestBarrierRecordRoundTrip: a barrier record holds the whole barrier.
// Every suite app runs under task, task+data and task+swp with a
// checkpoint every iteration; at each barrier of the segment, prologue and
// epilogue included (the skewed plan's mid-segment barriers, with staging
// residue, among them), the test takes a record, runs one more epoch and
// installs the record: WriteCheckpoint then writes exactly the bytes it
// wrote at that barrier.
func TestBarrierRecordRoundTrip(t *testing.T) {
	const n = 4
	for _, app := range apps.Suite() {
		for _, strat := range []partition.Strategy{partition.StratTask, partition.StratCoarseData, partition.StratSWP} {
			app, strat := app, strat
			t.Run(fmt.Sprintf("%s/%s", app.Name, strat), func(t *testing.T) {
				t.Parallel()
				me := buildMapped(t, app.Build, strat).engine(t, Options{CheckpointEvery: 1})
				if err := me.setup(); err != nil {
					t.Fatal(err)
				}
				sw := me.swp
				sw.segIters = n
				end := sw.segIters + sw.maxStage()
				residue := 0
				for at := int64(0); at < end; at++ {
					want := mappedCkptBytes(t, me, at)
					if stagingResidue(me) > 0 {
						residue++
					}
					var r barrier
					me.take(&r)
					if err := me.driveTo(at + 1); err != nil {
						t.Fatal(err)
					}
					me.install(&r)
					if got := mappedCkptBytes(t, me, at); !bytes.Equal(got, want) {
						t.Fatalf("cycle %d: the installed record writes another image than the barrier did", at)
					}
					if err := me.driveTo(at + 1); err != nil {
						t.Fatal(err)
					}
				}
				if strat == partition.StratSWP && sw.maxStage() > 0 && residue == 0 {
					t.Errorf("no mid-segment barrier held staging residue")
				}
			})
		}
	}
}

// TestMappedBarrierInsideBlockByReplay: a barrier inside a block is reached
// by replay. Every suite app runs under task and task+swp with a checkpoint
// every iteration, so records fall at block ends; from the record at each
// multiple s of StageBatch (a block start on every plan), a drive to each i
// in (s, s+8) writes the image that a drive of one cycle per epoch from s
// writes at i.
func TestMappedBarrierInsideBlockByReplay(t *testing.T) {
	const n = 16
	for _, app := range apps.Suite() {
		for _, strat := range []partition.Strategy{partition.StratTask, partition.StratSWP} {
			app, strat := app, strat
			t.Run(fmt.Sprintf("%s/%s", app.Name, strat), func(t *testing.T) {
				t.Parallel()
				me := buildMapped(t, app.Build, strat).engine(t, Options{CheckpointEvery: 1})
				if err := me.setup(); err != nil {
					t.Fatal(err)
				}
				sw := me.swp
				sw.segIters = n
				end := sw.segIters + sw.maxStage()
				drive := func(to int64) {
					if err := me.driveTo(to); err != nil {
						t.Fatal(err)
					}
				}
				for s := int64(0); s < end; s += StageBatch {
					var r barrier
					me.take(&r)
					next := min(s+StageBatch, end)
					want := map[int64][]byte{}
					for i := s + 1; i < next; i++ {
						drive(i)
						want[i] = mappedCkptBytes(t, me, i)
					}
					for i := s + 1; i < next; i++ {
						me.install(&r)
						drive(i)
						if !bytes.Equal(mappedCkptBytes(t, me, i), want[i]) {
							t.Fatalf("cycle %d: the replay from the record at %d writes another image than one cycle per epoch", i, s)
						}
					}
					drive(next)
				}
			})
		}
	}
}

// TestMappedCheckpointCadence counts the records of a lockstep Run(40): a
// checkpointing epoch ends at the first block end at least CheckpointEvery
// iterations on. Every iteration takes one at the start and one per block,
// ⌈40/8⌉ + 1; every 12 rounds up to 16; and a crash at iteration 5 cuts its
// block, so the record it rolls back to sits at iteration 5.
func TestMappedCheckpointCadence(t *testing.T) {
	const iters = 40
	records := func(every int, faults string) (at []int64, rolledBackTo int64) {
		rec := obs.NewRecorder()
		g, s, _ := faultPipeline(t, gainFilter("Double", 2))
		assign := make([]int, len(g.Nodes))
		for i := range assign {
			assign[i] = i % 3
		}
		opts := Options{CheckpointEvery: every, Trace: rec, Replan: packer(&partition.ExecPlan{}, g, s)}
		if faults != "" {
			opts.Faults = mustPlan(t, faults)
		}
		me, err := NewMappedOpts(g, s, assign, 3, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := me.Run(iters); err != nil {
			t.Fatal(err)
		}
		rolledBackTo = -1
		for _, ev := range rec.Events() {
			switch ev.Cat {
			case "checkpoint":
				var it int64
				if _, err := fmt.Sscanf(ev.Detail, "iteration %d", &it); err != nil {
					t.Fatalf("checkpoint instant %q: %v", ev.Detail, err)
				}
				at = append(at, it)
			case "recovery":
				rolledBackTo = at[len(at)-1]
			}
		}
		return at, rolledBackTo
	}
	for _, c := range []struct {
		every      int
		faults     string
		want       []int64
		rolledBack int64
	}{
		{1, "", []int64{0, 8, 16, 24, 32, 40}, -1},
		{12, "", []int64{0, 16, 32, 40}, -1},
		{1, "crash:worker1@5", []int64{0, 5, 8, 16, 24, 32, 40}, 5},
	} {
		at, back := records(c.every, c.faults)
		if !slices.Equal(at, c.want) || back != c.rolledBack {
			t.Errorf("every %d %q: records at %v, a rollback to %d; want %v and %d", c.every, c.faults, at, back, c.want, c.rolledBack)
		}
	}
}
