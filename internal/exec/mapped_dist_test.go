package exec

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"streamit/internal/apps"
	"streamit/internal/ir"
	"streamit/internal/partition"
	"streamit/internal/sched"
)

// shardRig is one independently-compiled view of the rewritten program —
// what each distributed shard (and the coordinator) builds locally from
// the same source. Cross-build determinism of the rewrite is itself under
// test: node and edge IDs must line up across rigs.
type shardRig struct {
	g      *ir.Graph
	s      *sched.Schedule
	assign []int
	fs     []*ir.Filter
	outs   []*[]float64
}

func buildShardRig(t *testing.T, build func() *ir.Program, strat partition.Strategy, workers int) *shardRig {
	t.Helper()
	prog := build()
	var fs []*ir.Filter
	var outs []*[]float64
	prog.Top = swapSinks(prog.Top, &fs, &outs)
	g, err := ir.Flatten(prog)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := partition.BuildExecPlan(prog, g, s, partition.ExecPlanOptions{Strategy: strat, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Pipelined {
		t.Fatalf("sharded execution needs a lockstep plan; strategy %s is pipelined", strat)
	}
	g2, err := ir.Flatten(plan.Program)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sched.Compute(g2)
	if err != nil {
		t.Fatal(err)
	}
	return &shardRig{g: g2, s: s2, assign: plan.Assign(g2, s2), fs: fs, outs: outs}
}

// shardEngines builds one prepared sharded engine per rig, shard sh
// running the workers w with w/perShard == sh, and joins them in one
// process: for every shard-boundary edge a pump drains the producing
// engine's link into the consuming engine's, the part a socket plays
// between processes. stop aborts every engine and returns once every pump
// has exited.
func shardEngines(t *testing.T, rigs []*shardRig, workers, perShard int) (engines []*MappedEngine, stop func()) {
	t.Helper()
	engines = make([]*MappedEngine, len(rigs))
	for sh, r := range rigs {
		local := make([]bool, workers)
		for w := range local {
			local[w] = w/perShard == sh
		}
		me, err := NewMappedOpts(r.g, r.s, r.assign, workers, Options{LocalWorkers: local, Watchdog: -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := me.Prepare(); err != nil {
			t.Fatal(err)
		}
		engines[sh] = me
	}
	var wg sync.WaitGroup
	r := rigs[0]
	for _, e := range r.g.Edges {
		from, to := r.assign[e.Src.ID]/perShard, r.assign[e.Dst.ID]/perShard
		if from == to {
			continue
		}
		wg.Add(1)
		go func(id int, from, to *MappedEngine) {
			defer wg.Done()
			for from.DrainBoundary(id, func(b []float64) error { return to.FillBoundary(id, b) }) == nil {
			}
		}(e.ID, engines[from], engines[to])
	}
	return engines, func() {
		for _, me := range engines {
			me.Abort()
		}
		wg.Wait()
	}
}

// TestMappedShardedBitIdentical splits a 4-worker coarse-data plan into
// two 2-worker shards (each an independently-compiled engine, their
// boundary links pumped into each other), drives them in lockstep
// epochs, and checks: sink outputs bit-identical to a single-process
// mapped engine and to a sequential engine; and the barrier image
// assembled from the two shards' exported slices byte-equal to the
// single-process engine's checkpoint at every barrier.
func TestMappedShardedBitIdentical(t *testing.T) {
	build := func() *ir.Program { return apps.FMRadio(2, 8) }
	const workers, perShard, iters, epoch = 4, 2, 8, 2
	strat := partition.StratCoarseData

	shardOf := func(w int) int { return w / perShard }
	rigs := []*shardRig{
		buildShardRig(t, build, strat, workers), // shard 0
		buildShardRig(t, build, strat, workers), // shard 1
	}
	single := buildShardRig(t, build, strat, workers)

	// Cross-build determinism: the fingerprinted rewrite must be stable.
	for i, r := range rigs {
		if got, want := GraphFingerprint(r.g, r.s), GraphFingerprint(single.g, single.s); got != want {
			t.Fatalf("shard %d compiled fingerprint %x, coordinator has %x", i, got, want)
		}
	}

	engines, stop := shardEngines(t, rigs, workers, perShard)
	defer stop()

	ms, err := NewMappedOpts(single.g, single.s, single.assign, workers, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Prepare(); err != nil {
		t.Fatal(err)
	}

	for done := 0; done < iters; done += epoch {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for sh, me := range engines {
			wg.Add(1)
			go func(sh int, me *MappedEngine) {
				defer wg.Done()
				errs[sh] = me.StepEpoch(epoch)
			}(sh, me)
		}
		wg.Wait()
		for sh, err := range errs {
			if err != nil {
				t.Fatalf("shard %d epoch at %d: %v", sh, done, err)
			}
		}
		if err := ms.StepEpoch(epoch); err != nil {
			t.Fatalf("single-process epoch at %d: %v", done, err)
		}

		parts := make([]*ShardState, 2)
		for sh, me := range engines {
			p, err := me.ExportShard()
			if err != nil {
				t.Fatal(err)
			}
			if p.Iteration != int64(done+epoch) {
				t.Fatalf("shard %d exported at iteration %d, want %d", sh, p.Iteration, done+epoch)
			}
			parts[sh] = p
		}
		img, err := AssembleShardImage(single.g, single.s, int64(done+epoch), parts)
		if err != nil {
			t.Fatalf("assemble at %d: %v", done+epoch, err)
		}
		var want sliceBuffer
		if err := ms.WriteCheckpoint(&want, int64(done+epoch)); err != nil {
			t.Fatal(err)
		}
		if string(img) != string(want) {
			t.Fatalf("assembled image at iteration %d differs from the single-process checkpoint (%d vs %d bytes)",
				done+epoch, len(img), len(want))
		}

		// The assembled image restores into a fresh sequential engine over
		// an independently-compiled graph — the interchange path a shard
		// migration rides.
		if done+epoch == iters {
			seq, err := NewFromGraphBackend(single.g, single.s, BackendVM)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := seq.RestoreCheckpoint(img); err != nil {
				t.Fatalf("sequential restore of assembled image: %v", err)
			}
		}
	}

	// Each sink is owned by exactly one shard; its owner's collector must
	// match the single-process engine's bit for bit.
	for i := range single.fs {
		n := single.g.FilterNode[single.fs[i]]
		if n == nil {
			t.Fatalf("collector %d missing from rewritten graph", i)
		}
		owner := shardOf(single.assign[n.ID])
		got, want := *rigs[owner].outs[i], *single.outs[i]
		if len(got) != len(want) {
			t.Fatalf("sink %d: shard %d captured %d items, single-process %d", i, owner, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("sink %d item %d: shard %v, single-process %v", i, j, got[j], want[j])
			}
		}
	}

	// Sharded engines must refuse full checkpoints mid-run: they hold only
	// their own partitions' state.
	var buf sliceBuffer
	if err := engines[0].WriteCheckpoint(&buf, iters); err == nil {
		t.Fatal("WriteCheckpoint on an advanced shard should fail")
	}
}

// TestMappedShardedRestore rolls a pair of sharded engines back to an
// assembled mid-run image and replays: outputs after the rollback must
// re-converge bit-identically (the distributed recovery path in miniature).
func TestMappedShardedRestore(t *testing.T) {
	build := func() *ir.Program { return apps.FMRadio(2, 8) }
	const workers, perShard, iters, epoch = 4, 2, 6, 2
	strat := partition.StratCoarseData

	single := buildShardRig(t, build, strat, workers)
	rigs := []*shardRig{
		buildShardRig(t, build, strat, workers),
		buildShardRig(t, build, strat, workers),
	}
	engines, stop := shardEngines(t, rigs, workers, perShard)
	defer stop()

	step := func(n int) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for sh, me := range engines {
			wg.Add(1)
			go func(sh int, me *MappedEngine) {
				defer wg.Done()
				errs[sh] = me.StepEpoch(n)
			}(sh, me)
		}
		wg.Wait()
		for sh, err := range errs {
			if err != nil {
				t.Fatalf("shard %d: %v", sh, err)
			}
		}
	}

	step(epoch) // to iteration 2
	parts := make([]*ShardState, 2)
	for sh, me := range engines {
		p, err := me.ExportShard()
		if err != nil {
			t.Fatal(err)
		}
		parts[sh] = p
	}
	img, err := AssembleShardImage(single.g, single.s, epoch, parts)
	if err != nil {
		t.Fatal(err)
	}

	step(iters - epoch) // to the end; collectors now hold the full run
	var wantOuts [][]float64
	for _, r := range rigs {
		for _, o := range r.outs {
			wantOuts = append(wantOuts, append([]float64(nil), *o...))
		}
	}

	// Roll both shards back to iteration 2 and replay. Collectors re-run,
	// so reset them first.
	for _, r := range rigs {
		for _, o := range r.outs {
			*o = nil
		}
	}
	for sh, me := range engines {
		it, err := me.RestoreCheckpoint(img)
		if err != nil {
			t.Fatalf("shard %d restore: %v", sh, err)
		}
		if it != epoch {
			t.Fatalf("shard %d restored to iteration %d, want %d", sh, it, epoch)
		}
	}
	step(iters - epoch)
	var gotOuts [][]float64
	for _, r := range rigs {
		for _, o := range r.outs {
			gotOuts = append(gotOuts, append([]float64(nil), *o...))
		}
	}
	for i := range wantOuts {
		// The replay covers iterations 2..6; the original capture covers
		// 0..6 — the replay must equal the tail.
		want := wantOuts[i][len(wantOuts[i])-len(gotOuts[i]):]
		for j := range want {
			if gotOuts[i][j] != want[j] {
				t.Fatalf("sink slice %d item %d: replay %v, original %v", i, j, gotOuts[i][j], want[j])
			}
		}
	}
}

// TestMappedShardedAbortUnwindsPumps runs only the producing shard of a
// pair, so its boundary pump blocks on the consuming shard's full link and
// the producer on its own (a 64-iteration epoch ships 8 blocks, far more
// than the link's slots hold); Abort then unwinds all of it. The epoch fails,
// so does a later one that has to wait on a link, and no goroutine is left
// behind.
func TestMappedShardedAbortUnwindsPumps(t *testing.T) {
	build := func() *ir.Program { return apps.FMRadio(2, 8) }
	const workers, perShard = 4, 2
	before := runtime.NumGoroutine()
	rigs := []*shardRig{
		buildShardRig(t, build, partition.StratCoarseData, workers),
		buildShardRig(t, build, partition.StratCoarseData, workers),
	}
	engines, stop := shardEngines(t, rigs, workers, perShard)
	var edge *ir.Edge
	for _, e := range rigs[0].g.Edges {
		if rigs[0].assign[e.Src.ID]/perShard != rigs[0].assign[e.Dst.ID]/perShard {
			edge = e
			break
		}
	}
	if edge == nil {
		t.Fatal("the plan has no shard-boundary edge")
	}
	from, to := engines[rigs[0].assign[edge.Src.ID]/perShard], engines[rigs[0].assign[edge.Dst.ID]/perShard]
	done := make(chan error, 1)
	go func() { done <- from.StepEpoch(64) }()

	full := to.links[edge.ID]
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if full.pos[sideSend].Load()-full.pos[sideRecv].Load() == uint64(len(full.slots)) && full.waiting[sideSend].Load() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the pump never blocked on the consuming shard's full link")
		}
	}
	unwound := make(chan struct{})
	go func() { stop(); close(unwound) }()
	select {
	case <-unwound:
	case <-time.After(10 * time.Second):
		t.Fatal("the pumps did not unwind")
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("an aborted epoch reported a barrier")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the producing shard's epoch did not unwind")
	}
	if err := to.StepEpoch(64); err == nil {
		t.Fatal("an epoch after Abort ran past what its links held")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left behind", runtime.NumGoroutine()-before)
		}
	}
}
