package exec

import (
	"fmt"
	"runtime"
	"testing"

	"streamit/internal/apps"
	"streamit/internal/partition"
)

// runCost is what one Run(n) allocates on average over reps runs: objects
// and bytes. Like testing.AllocsPerRun it warms up with one run and then
// runs on one processor, where a worker goroutine that exits leaves its
// descriptor for the next one to reuse.
func runCost(t *testing.T, me *MappedEngine, n, reps int) (objects, bytes float64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	for i := -1; i < reps; i++ {
		if i == 0 {
			runtime.ReadMemStats(&before)
		}
		if err := me.Run(n); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(reps), float64(after.TotalAlloc-before.TotalAlloc) / float64(reps)
}

// TestMappedRunAllocationBound pins the mapped engine's allocation
// contract: once warm, a Run allocates what starting its worker set takes
// and nothing per iteration, batch or barrier — Run(n) and Run(4n) allocate
// the same objects, and no Run more than maxRunBytes — over the suite under
// task, task+data and task+swp, without and with a checkpoint at every
// barrier. A restore into an engine that never ran compiles nothing.
func TestMappedRunAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n, reps = 8, 4
	const maxRunBytes = 16 << 10
	// slack covers what the runtime may allocate for a goroutine start.
	const slack = 4
	for _, app := range apps.Suite() {
		for _, strat := range []partition.Strategy{partition.StratTask, partition.StratCoarseData, partition.StratSWP} {
			for _, every := range []int{0, 1} {
				label := fmt.Sprintf("%s/%s/every=%d", app.Name, strat, every)
				mb := planMapped(t, app.Build(), strat) // the suite's own sinks: a collector allocates
				me := mb.engine(t, Options{CheckpointEvery: every})
				for i := 0; i < 2; i++ { // warm: batches and queues reach their size
					if err := me.Run(4 * n); err != nil {
						t.Fatal(err)
					}
				}
				short, shortBytes := runCost(t, me, n, reps)
				long, longBytes := runCost(t, me, 4*n, reps)
				if long > short+slack || short > long+slack {
					t.Errorf("%s: Run(%d) allocates %.1f objects, Run(%d) %.1f: a Run's allocations grow with its length",
						label, n, short, 4*n, long)
				}
				if b := max(shortBytes, longBytes); b > maxRunBytes {
					t.Errorf("%s: a Run allocates %.0f bytes, want <= %d", label, b, maxRunBytes)
				}

				fresh := mb.engine(t, Options{CheckpointEvery: every})
				if _, err := fresh.RestoreCheckpoint(mappedCkptBytes(t, me, 4*n)); err != nil {
					t.Fatal(err)
				}
				if fresh.shared != nil {
					t.Errorf("%s: a restore into a never-run engine compiled its kernels", label)
				}
			}
		}
	}
}
