package partition

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"streamit/internal/apps"
	"streamit/internal/ir"
	"streamit/internal/sched"
)

// buildPlan rewrites prog for workers cores and flattens and schedules the
// result.
func buildPlan(t *testing.T, prog *ir.Program, strat Strategy, workers int) (*ExecPlan, *ir.Graph, *sched.Schedule) {
	t.Helper()
	g, s := compile(t, prog)
	plan, err := BuildExecPlan(prog, g, s, ExecPlanOptions{Strategy: strat, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	g2, s2 := compile(t, plan.Program)
	return plan, g2, s2
}

func buildShardedPlan(t *testing.T, strat Strategy, workers int) (*ExecPlan, *ir.Graph, *sched.Schedule) {
	t.Helper()
	return buildPlan(t, apps.FMRadio(4, 16), strat, workers)
}

func mustPack(t *testing.T, plan *ExecPlan, g2 *ir.Graph, s2 *sched.Schedule, topo Topology) []int {
	t.Helper()
	assign, err := plan.Pack(g2, s2, topo)
	if err != nil {
		t.Fatalf("Pack onto %dx%d: %v", topo.Shards, topo.PerShard, err)
	}
	return assign
}

// TestPackContract states the packer's contract once, over every app, host
// strategy and bin count: every node lands in range, every stage cluster
// sits on one worker, the packing is deterministic (the coordinator and the
// engines each compute it and must agree), the heaviest bin carries at most
// the mean plus the heaviest unit (a bound every min-max cut meets), and
// both levels are the same cut — n shards of one worker, one shard of n
// workers, and Assign on the plan's own count all agree, while a real grid
// keeps clusters whole too. Reverb and the frequency-hopping radio add the
// feedback and teleport-messaging clusters the twelve suite apps lack.
func TestPackContract(t *testing.T) {
	progs := apps.Suite()
	progs = append(progs,
		apps.App{Name: "Reverb", Build: func() *ir.Program { return apps.Reverb(4, 0.5) }},
		apps.App{Name: "FreqHoppingRadio", Build: func() *ir.Program { return apps.FreqHoppingRadio(true) }})
	clusters := 0
	for _, app := range progs {
		for _, strat := range []Strategy{StratTask, StratFineData, StratCoarseData, StratSWP, StratCombined} {
			plan, g2, s2 := buildPlan(t, app.Build(), strat, 4)
			sp, err := PipelineStages(g2)
			if err != nil {
				t.Fatal(err)
			}
			units := slices.Clone(sp.Clusters)
			clusters += len(units)
			for id := range g2.Nodes {
				if !slices.ContainsFunc(units, func(u []int) bool { return slices.Contains(u, id) }) {
					units = append(units, []int{id})
				}
			}
			work := steadyWork(g2, s2, plan.Work)
			for _, bins := range []int{1, 2, 3, 4, 8} {
				what := fmt.Sprintf("%s under %s onto %d", app.Name, strat, bins)
				assign := mustPack(t, plan, g2, s2, Topology{Shards: bins, PerShard: 1})
				if len(assign) != len(g2.Nodes) {
					t.Fatalf("%s: assignment covers %d of %d nodes", what, len(assign), len(g2.Nodes))
				}
				load := make([]int64, bins)
				var total, heaviest int64
				for _, members := range units {
					var w int64
					for _, id := range members {
						if assign[id] < 0 || assign[id] >= bins {
							t.Fatalf("%s: node %d on worker %d", what, id, assign[id])
						}
						if assign[id] != assign[members[0]] {
							t.Fatalf("%s: cluster %v splits across workers %d and %d", what, members, assign[members[0]], assign[id])
						}
						w += max(work[id], 1)
					}
					load[assign[members[0]]] += w
					total += w
					heaviest = max(heaviest, w)
				}
				if got, bound := slices.Max(load), total/int64(bins)+heaviest; got > bound {
					t.Errorf("%s: heaviest bin carries %d, above mean + heaviest unit = %d", what, got, bound)
				}
				if again := mustPack(t, plan, g2, s2, Topology{Shards: bins, PerShard: 1}); !slices.Equal(assign, again) {
					t.Errorf("%s: two calls disagree", what)
				}
				if oneShard := mustPack(t, plan, g2, s2, Topology{Shards: 1, PerShard: bins}); !slices.Equal(assign, oneShard) {
					t.Errorf("%s: %d shards of one worker and one shard of %d workers disagree", what, bins, bins)
				}
				if bins == plan.Workers && !slices.Equal(assign, plan.Assign(g2, s2)) {
					t.Errorf("%s: Assign disagrees with Pack onto the plan's own worker count", what)
				}
				grid := mustPack(t, plan, g2, s2, Topology{Shards: bins, PerShard: 2})
				for _, members := range units {
					for _, id := range members {
						if grid[id] < 0 || grid[id] >= 2*bins || grid[id] != grid[members[0]] {
							t.Fatalf("%s: %dx2 grid puts node %d of unit %v on worker %d", what, bins, id, members, grid[id])
						}
					}
				}
			}
		}
	}
	if clusters == 0 {
		t.Error("no plan had a stage cluster; the cluster clause was never exercised")
	}
}

// TestPackSharded: on a real grid both shards get work, and the second
// level actually spreads a shard's nodes over its local workers.
func TestPackSharded(t *testing.T) {
	plan, g2, s2 := buildShardedPlan(t, StratCoarseData, 4)
	const shards, perShard = 2, 2
	assign := mustPack(t, plan, g2, s2, Topology{Shards: shards, PerShard: perShard})
	perWorker := make([]int, shards*perShard)
	perShardN := make([]int, shards)
	for _, w := range assign {
		perWorker[w]++
		perShardN[w/perShard]++
	}
	for sh, n := range perShardN {
		if n == 0 {
			t.Fatalf("shard %d received no nodes: per-worker %v", sh, perWorker)
		}
	}
	busyWorkers := 0
	for _, n := range perWorker {
		if n > 0 {
			busyWorkers++
		}
	}
	if busyWorkers < shards+1 {
		t.Fatalf("second-level packing left work on only %d workers: %v", busyWorkers, perWorker)
	}
}

// TestPackRejects: degenerate shapes and a pipelined plan whose graph cannot be staged fail loudly —
// nothing behind Pack packs a second opinion without the clusters.
func TestPackRejects(t *testing.T) {
	plan, g2, s2 := buildShardedPlan(t, StratCoarseData, 4)
	if _, err := plan.Pack(g2, s2, Topology{Shards: 0, PerShard: 2}); err == nil {
		t.Fatal("0 shards should be rejected")
	}
	if _, err := plan.Pack(g2, s2, Topology{Shards: 2, PerShard: 0}); err == nil {
		t.Fatal("0 workers per shard should be rejected")
	}

	// A forward cycle no back edge accounts for: stage contraction fails.
	a := &ir.Node{ID: 0, Kind: ir.NodeSplitter, Name: "a"}
	b := &ir.Node{ID: 1, Kind: ir.NodeJoiner, Name: "b"}
	cyclic := &ir.Graph{Name: "cyclic", Nodes: []*ir.Node{a, b},
		Edges: []*ir.Edge{{ID: 0, Src: a, Dst: b}, {ID: 1, Src: b, Dst: a}}}
	swp := &ExecPlan{Strategy: StratSWP, Workers: 2, Pipelined: true}
	sch := &sched.Schedule{Reps: []int{1, 1}}
	if _, err := swp.Pack(cyclic, sch, Topology{Shards: 2, PerShard: 1}); err == nil || !strings.Contains(err.Error(), "left a cycle") {
		t.Fatalf("err = %v, want the stage contraction's cycle error", err)
	}
	if assign := swp.Assign(cyclic, sch); assign != nil {
		t.Fatalf("Assign packed an unstageable graph: %v", assign)
	}
}

// checkChain asserts that assign is a cut of g's structure order onto
// workers: worker numbers never fall along the order (so every worker holds
// one contiguous run, and no cross-worker edge runs backwards), clusters
// stay whole, the order is topological over forward edges, and no worker is
// empty while there are units for it.
func checkChain(t *testing.T, what string, g *ir.Graph, sp *StagePlan, assign []int, workers int) {
	t.Helper()
	units := structureOrder(g, sp)
	pos := make([]int, len(g.Nodes))
	placed := 0
	used := make([]bool, workers)
	last := 0
	for i, members := range units {
		w := assign[members[0]]
		for _, id := range members {
			if assign[id] != w {
				t.Fatalf("%s: unit %v splits across workers %d and %d", what, members, w, assign[id])
			}
			pos[id] = i
			placed++
		}
		if w < last {
			t.Fatalf("%s: unit %d of the structure order is on worker %d after worker %d: a worker's run is not contiguous", what, i, w, last)
		}
		last, used[w] = w, true
	}
	if placed != len(g.Nodes) {
		t.Fatalf("%s: structure order places %d of %d nodes", what, placed, len(g.Nodes))
	}
	for _, e := range g.Edges {
		src, dst := e.Src.ID, e.Dst.ID
		if e.Back {
			if assign[src] != assign[dst] {
				t.Fatalf("%s: back edge %s leaves its cluster's worker", what, e)
			}
			continue
		}
		if pos[src] > pos[dst] {
			t.Fatalf("%s: edge %s runs backwards in the structure order", what, e)
		}
		if assign[src] > assign[dst] {
			t.Fatalf("%s: edge %s runs backwards from worker %d to %d", what, e, assign[src], assign[dst])
		}
	}
	if len(units) >= workers && slices.Contains(used, false) {
		t.Fatalf("%s: %d units left a worker empty: %v", what, len(units), used)
	}
}

// TestPackChain: over the twelve suite apps, every executable strategy and
// 2, 4 and 16 workers, plus a 2x2 grid and the two apps with stage clusters,
// the assignment is a chain — each worker one contiguous run of the
// structure order, every crossing edge forward.
func TestPackChain(t *testing.T) {
	progs := append(apps.Suite(),
		apps.App{Name: "Reverb", Build: func() *ir.Program { return apps.Reverb(4, 0.5) }},
		apps.App{Name: "FreqHoppingRadio", Build: func() *ir.Program { return apps.FreqHoppingRadio(true) }})
	for _, app := range progs {
		for _, strat := range []Strategy{StratTask, StratFineData, StratCoarseData, StratSWP, StratCombined} {
			for _, workers := range []int{2, 4, 16} {
				plan, g2, s2 := buildPlan(t, app.Build(), strat, workers)
				sp, err := PipelineStages(g2)
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("%s under %s onto %d", app.Name, strat, workers)
				checkChain(t, what, g2, sp, plan.Assign(g2, s2), workers)
				if workers == 4 {
					grid := mustPack(t, plan, g2, s2, Topology{Shards: 2, PerShard: 2})
					checkChain(t, what+" as 2x2", g2, sp, grid, 4)
				}
			}
		}
	}
}

// TestPackCutOptimal: on seeded random weight vectors the cut's heaviest run
// equals the brute-force minimum over every contiguous split, its
// boundaries cover the vector in order, and no run is empty when there are
// at least as many weights as runs.
func TestPackCutOptimal(t *testing.T) {
	// best is the least heaviest run over every split of w into k runs,
	// empty runs allowed.
	var best func(w []int64, k int) int64
	best = func(w []int64, k int) int64 {
		var sum int64
		for _, x := range w {
			sum += x
		}
		if k == 1 {
			return sum
		}
		least, head := sum, int64(0)
		for i := 0; i <= len(w); i++ {
			if i > 0 {
				head += w[i-1]
			}
			least = min(least, max(head, best(w[i:], k-1)))
		}
		return least
	}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 2000; trial++ {
		n, k := rng.Intn(11), 1+rng.Intn(4)
		w := make([]int64, n)
		for i := range w {
			w[i] = 1 + rng.Int63n([]int64{3, 20, 1000}[trial%3])
		}
		ends := cut(w, k)
		if len(ends) != k+1 || ends[0] != 0 || ends[k] != n {
			t.Fatalf("cut(%v, %d) = %v: boundaries do not cover the weights", w, k, ends)
		}
		var heaviest int64
		for b := 0; b < k; b++ {
			if ends[b] > ends[b+1] {
				t.Fatalf("cut(%v, %d) = %v: boundaries out of order", w, k, ends)
			}
			if n >= k && ends[b] == ends[b+1] {
				t.Fatalf("cut(%v, %d) = %v: run %d is empty", w, k, ends, b)
			}
			var run int64
			for _, x := range w[ends[b]:ends[b+1]] {
				run += x
			}
			heaviest = max(heaviest, run)
		}
		if want := best(w, k); heaviest != want {
			t.Fatalf("cut(%v, %d) = %v: heaviest run %d, brute force reaches %d", w, k, ends, heaviest, want)
		}
	}
}

// TestSuiteCrossEdges pins, per suite app, how many edges of the plan for 2
// workers cross between the workers, under task, task+data and task+swp:
// each crossing edge is a staging ring, a link and a consumer copy per
// iteration, so a placement change that adds hops fails here on any
// machine. None crosses backwards (TestPackChain). Lower a row on purpose
// when the cut improves.
func TestSuiteCrossEdges(t *testing.T) {
	want := map[string][3]int{ // task, task+data, task+swp
		"BitonicSort":    {1, 1, 1},
		"ChannelVocoder": {17, 17, 17},
		"DCT":            {1, 2, 1},
		"DES":            {1, 1, 1},
		"FFT":            {2, 2, 2},
		"FilterBank":     {8, 8, 8},
		"FMRadio":        {10, 10, 10},
		"Serpent":        {1, 2, 1},
		"TDE":            {1, 2, 1},
		"MPEG2Decoder":   {2, 3, 2},
		"Vocoder":        {15, 15, 15},
		"Radar":          {7, 7, 7},
	}
	for _, app := range apps.Suite() {
		row, ok := want[app.Name]
		if !ok {
			t.Errorf("%s: no row in the table", app.Name)
			continue
		}
		for i, strat := range []Strategy{StratTask, StratCoarseData, StratSWP} {
			plan, g2, s2 := buildPlan(t, app.Build(), strat, 2)
			assign := plan.Assign(g2, s2)
			cross := 0
			for _, e := range g2.Edges {
				if assign[e.Src.ID] != assign[e.Dst.ID] {
					cross++
				}
			}
			if cross != row[i] {
				t.Errorf("%s under %s: %d of %d edges cross workers, want %d", app.Name, strat, cross, len(g2.Edges), row[i])
			}
		}
	}
}

// TestPackStructureOrder: a split-join's branches follow its
// splitter whole and in port order, and its joiner follows them all —
// where node IDs put the joiner before the branches.
func TestPackStructureOrder(t *testing.T) {
	g, err := ir.Flatten(&ir.Program{Name: "sj", Top: ir.Pipe("p",
		heavyFilter("src", 10, 0, 0, 2),
		ir.SJ("sj", ir.RoundRobin(1, 1), ir.RoundRobin(1, 1),
			ir.Pipe("b0", heavyFilter("a0", 10, 0, 1, 1), heavyFilter("a1", 10, 0, 1, 1)),
			ir.Pipe("b1", heavyFilter("c0", 10, 0, 1, 1), heavyFilter("c1", 10, 0, 1, 1))),
		heavyFilter("snk", 10, 0, 2, 0))})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := PipelineStages(g)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, members := range structureOrder(g, sp) {
		got = append(got, g.Nodes[members[0]].Name)
	}
	if want := []string{"src#0", "sj.split#1", "a0#3", "a1#4", "c0#5", "c1#6", "sj.join#2", "snk#7"}; !slices.Equal(got, want) {
		t.Fatalf("structure order %v, want %v", got, want)
	}
}
