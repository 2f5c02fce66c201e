package exec

import (
	"fmt"
	"runtime"
	"testing"

	"streamit/internal/apps"
	"streamit/internal/partition"
)

// runCost is what one Run(n) allocates on average over reps runs: objects
// and bytes.
func runCost(t *testing.T, me *MappedEngine, n, reps int) (objects, bytes float64) {
	t.Helper()
	return callCost(t, reps, func() error { return me.Run(n) })
}

// callCost is what one call of f allocates on average over reps calls.
// Like testing.AllocsPerRun it warms up with one call and then calls on one
// processor, where a worker goroutine that exits leaves its descriptor for
// the next one to reuse.
func callCost(t *testing.T, reps int, f func() error) (objects, bytes float64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	for i := -1; i < reps; i++ {
		if i == 0 {
			runtime.ReadMemStats(&before)
		}
		if err := f(); err != nil {
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
// barrier. A restore into an engine that never ran compiles nothing, and a
// warm restore allocates nothing that grows with the graph: as many bytes
// for DES as for DCT.
func TestMappedRunAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n, reps = 8, 4
	const maxRunBytes = 16 << 10
	// slack covers what the runtime may allocate for a goroutine start.
	const slack = 4
	restoreBytes := map[string]float64{} // by app/strategy/every
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

				img := mappedCkptBytes(t, me, 4*n)
				fresh := mb.engine(t, Options{CheckpointEvery: every})
				if _, err := fresh.RestoreCheckpoint(img); err != nil {
					t.Fatal(err)
				}
				if fresh.shared != nil {
					t.Errorf("%s: a restore into a never-run engine compiled its kernels", label)
				}
				_, restoreBytes[label] = callCost(t, reps, func() error {
					_, err := me.RestoreCheckpoint(img)
					return err
				})
			}
		}
	}
	for _, strat := range []partition.Strategy{partition.StratTask, partition.StratCoarseData, partition.StratSWP} {
		for _, every := range []int{0, 1} {
			des, dct := restoreBytes[fmt.Sprintf("DES/%s/every=%d", strat, every)], restoreBytes[fmt.Sprintf("DCT/%s/every=%d", strat, every)]
			if des != dct {
				t.Errorf("%s/every=%d: a warm restore allocates %.0f bytes for DES, %.0f for DCT: its allocations grow with the graph", strat, every, des, dct)
			}
		}
	}
}
