package dist

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"streamit/internal/apps"
	"streamit/internal/exec"
	"streamit/internal/ir"
	"streamit/internal/partition"
)

// testConfig returns a Config tuned for fast in-process tests: tight
// heartbeats, short deadlines.
func testConfig(shards int) Config {
	return Config{
		Shards:           shards,
		PerShard:         2,
		Strategy:         partition.StratCoarseData,
		Epoch:            4,
		TapSinks:         true,
		Heartbeat:        20 * time.Millisecond,
		HeartbeatTimeout: 300 * time.Millisecond,
		EpochTimeout:     5 * time.Second,
		WriteTimeout:     2 * time.Second,
		JoinTimeout:      10 * time.Second,
		Log:              func(string, ...any) {},
	}
}

func testShardOptions(name string) ShardOptions {
	return ShardOptions{
		Name:         name,
		Heartbeat:    20 * time.Millisecond,
		WriteTimeout: 2 * time.Second,
		JoinTimeout:  10 * time.Second,
		LinkTimeout:  3 * time.Second,
		CrashFn:      func() {}, // in-process shards must not exit the test binary
		Log:          func(string, ...any) {},
	}
}

// runDist drives one full distributed run with in-process shards over
// loopback TCP and returns the result. Shard errors are expected for
// injected faults and demotions; they are logged, not fatal.
func runDist(t *testing.T, spec Spec, cfg Config, total int, mut ...func(*ShardOptions)) *Result {
	t.Helper()
	co, err := NewCoordinator(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := co.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < cfg.Shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := testShardOptions(fmt.Sprintf("w%d", i))
			for _, m := range mut {
				m(&opts)
			}
			if err := Join(addr, opts); err != nil {
				t.Logf("shard %d exited: %v", i, err)
			}
		}(i)
	}
	res, err := co.Run(total)
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	wg.Wait()
	return res
}

// refRun executes the same plan in a single-process mapped engine with
// identical sink taps — the bit-identity reference. (The mapped engine
// itself is proven bit-identical to the sequential engine by the exec
// conformance suite.)
func refRun(t *testing.T, spec Spec, cfg Config, total int) (map[string][]float64, []byte) {
	t.Helper()
	prog, err := buildProgram(spec, SuiteRegistry())
	if err != nil {
		t.Fatal(err)
	}
	jp, err := buildJobPlan(prog, cfg.Strategy, cfg.Shards*cfg.PerShard)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := jp.plan.Pack(jp.g2, jp.s2, partition.Topology{Shards: cfg.Shards, PerShard: cfg.PerShard})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := exec.NewMappedOpts(jp.g2, jp.s2, assign, cfg.Shards*cfg.PerShard, exec.Options{
		Backend: cfg.Backend, QueueDepth: cfg.QueueDepth,
	})
	if err != nil {
		t.Fatal(err)
	}
	all := make([]bool, cfg.Shards*cfg.PerShard)
	for i := range all {
		all[i] = true
	}
	taps, err := tapSinks(eng, jp.g2, assign, all)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(total); err != nil {
		t.Fatal(err)
	}
	outs := make(map[string][]float64)
	for id, buf := range taps {
		outs[jp.g2.Nodes[id].Name] = buf.items
	}
	var img sliceBuffer
	if err := eng.WriteCheckpoint(&img, int64(total)); err != nil {
		t.Fatal(err)
	}
	return outs, img
}

func sameOutputs(t *testing.T, what string, got, want map[string][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d sinks, want %d", what, len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("%s: sink %s missing", what, name)
		}
		if len(g) == 0 && len(w) == 0 {
			continue
		}
		if !reflect.DeepEqual(g, w) {
			n := len(g)
			if len(w) < n {
				n = len(w)
			}
			for i := 0; i < n; i++ {
				if g[i] != w[i] {
					t.Fatalf("%s: sink %s diverges at item %d: %v vs %v (lengths %d vs %d)",
						what, name, i, g[i], w[i], len(g), len(w))
				}
			}
			t.Fatalf("%s: sink %s length %d, want %d (equal prefix)", what, name, len(g), len(w))
		}
	}
}

// TestDistBitIdentical: a clean 2-shard run over loopback TCP produces
// exactly the single-process mapped engine's sink streams, and its final
// barrier image is byte-identical to the single-process checkpoint at the
// same iteration.
func TestDistBitIdentical(t *testing.T) {
	spec := Spec{App: "FMRadio"}
	cfg := testConfig(2)
	const total = 12
	res := runDist(t, spec, cfg, total)
	if res.Iterations != total {
		t.Fatalf("committed %d iterations, want %d", res.Iterations, total)
	}
	if res.Recoveries != 0 || len(res.Lost) != 0 {
		t.Fatalf("clean run recovered %d times, lost %v", res.Recoveries, res.Lost)
	}
	want, wantImg := refRun(t, spec, cfg, total)
	sameOutputs(t, "distributed vs single-process", res.Outputs, want)
	if string(res.FinalImage) != string(wantImg) {
		t.Fatalf("final barrier image differs from the single-process checkpoint: %d vs %d bytes",
			len(res.FinalImage), len(wantImg))
	}
}

// TestDistSingleShard: the degenerate one-shard run (no remote edges at
// all) still speaks the full protocol.
func TestDistSingleShard(t *testing.T) {
	spec := Spec{App: "DCT"}
	cfg := testConfig(1)
	const total = 8
	res := runDist(t, spec, cfg, total)
	if res.Iterations != total {
		t.Fatalf("committed %d iterations, want %d", res.Iterations, total)
	}
	want, _ := refRun(t, spec, cfg, total)
	sameOutputs(t, "single-shard vs single-process", res.Outputs, want)
}

// TestDistRejectsPipelinedStrategy: stage skew cannot cross a shard
// boundary, so a pipelined strategy is turned away when the job is
// planned — before anything is packed or any shard joins. (The packer
// itself packs any plan onto any grid; this is the gate.) So is a
// program only a pipelined plan could host, such as a feedback loop.
func TestDistRejectsPipelinedStrategy(t *testing.T) {
	for _, strat := range []partition.Strategy{partition.StratSWP, partition.StratCombined} {
		cfg := testConfig(2)
		cfg.Strategy = strat
		if _, err := NewCoordinator(Spec{App: "DCT"}, cfg); err == nil || !strings.Contains(err.Error(), "wants lockstep") {
			t.Errorf("%s: err = %v, want the lockstep-only rejection", strat, err)
		}
	}
	cfg := testConfig(2)
	cfg.Registry = map[string]func() *ir.Program{"Reverb": func() *ir.Program { return apps.Reverb(4, 0.5) }}
	if _, err := NewCoordinator(Spec{App: "Reverb"}, cfg); err == nil || !strings.Contains(err.Error(), "wants lockstep") {
		t.Errorf("feedback program: err = %v, want the lockstep-only rejection", err)
	}
}

// TestDistCrashRecovery: shard 1 crashes mid-run (connections severed,
// no protocol goodbye — kill -9 semantics). The survivors roll back to
// the last barrier image, absorb its partitions, and the committed output
// is still bit-identical.
func TestDistCrashRecovery(t *testing.T) {
	spec := Spec{App: "FMRadio"}
	cfg := testConfig(3)
	cfg.Faults = "crash:shard1@6"
	const total = 16
	res := runDist(t, spec, cfg, total)
	if res.Iterations != total {
		t.Fatalf("committed %d iterations, want %d", res.Iterations, total)
	}
	if res.Recoveries < 1 {
		t.Fatalf("crash caused %d recoveries, want >= 1", res.Recoveries)
	}
	if !reflect.DeepEqual(res.Lost, []int{1}) {
		t.Fatalf("lost shards %v, want [1]", res.Lost)
	}
	want, _ := refRun(t, spec, cfg, total)
	sameOutputs(t, "post-crash vs single-process", res.Outputs, want)
}

// TestDistStallRecovery: shard 0 wedges without dropping its connection
// or heartbeats. Only the wait-graph can finger it: the shards it starves
// keep reporting they are blocked on shard 0, so the barrier deadline
// demotes shard 0 alone and the run completes bit-identically.
func TestDistStallRecovery(t *testing.T) {
	spec := Spec{App: "FMRadio"}
	cfg := testConfig(3)
	cfg.Faults = "stall:shard0@5"
	cfg.EpochTimeout = 2 * time.Second
	const total = 16
	res := runDist(t, spec, cfg, total)
	if res.Iterations != total {
		t.Fatalf("committed %d iterations, want %d", res.Iterations, total)
	}
	if res.Recoveries < 1 {
		t.Fatalf("stall caused %d recoveries, want >= 1", res.Recoveries)
	}
	for _, id := range res.Lost {
		if id != 0 {
			t.Fatalf("wait-graph demoted %v; only the stalled shard 0 should go", res.Lost)
		}
	}
	want, _ := refRun(t, spec, cfg, total)
	sameOutputs(t, "post-stall vs single-process", res.Outputs, want)
}

// TestDistPartitionRecovery: shard 2 stops heartbeating while its TCP
// connections stay up (a one-way partition). Heartbeat staleness demotes
// it and the survivors resume bit-identically.
func TestDistPartitionRecovery(t *testing.T) {
	spec := Spec{App: "FMRadio"}
	cfg := testConfig(3)
	cfg.Faults = "partition:shard2@7"
	const total = 16
	res := runDist(t, spec, cfg, total)
	if res.Iterations != total {
		t.Fatalf("committed %d iterations, want %d", res.Iterations, total)
	}
	if res.Recoveries < 1 {
		t.Fatalf("partition caused %d recoveries, want >= 1", res.Recoveries)
	}
	found := false
	for _, id := range res.Lost {
		if id == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("lost %v does not include the partitioned shard 2", res.Lost)
	}
	want, _ := refRun(t, spec, cfg, total)
	sameOutputs(t, "post-partition vs single-process", res.Outputs, want)
}

// TestDistSuiteConformance: every app in the benchmark suite runs sharded
// over loopback TCP bit-identically to the single-process mapped engine.
func TestDistSuiteConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite conformance is not a -short test")
	}
	for _, name := range suiteNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec := Spec{App: name}
			cfg := testConfig(2)
			const total = 8
			res := runDist(t, spec, cfg, total)
			if res.Iterations != total {
				t.Fatalf("committed %d iterations, want %d", res.Iterations, total)
			}
			want, wantImg := refRun(t, spec, cfg, total)
			sameOutputs(t, "distributed vs single-process", res.Outputs, want)
			if string(res.FinalImage) != string(wantImg) {
				t.Fatal("final barrier image differs from the single-process checkpoint")
			}
		})
	}
}

func suiteNames() []string {
	var names []string
	for name := range SuiteRegistry() {
		names = append(names, name)
	}
	return names
}

// sliceBuffer mirrors exec's test helper: an io.Writer onto a byte slice.
type sliceBuffer []byte

func (b *sliceBuffer) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}
