package partition

import (
	"fmt"
	"strings"
	"testing"
)

// The TestFissAll cases pin fissFactor, the one fission heuristic, on
// segment works chosen around its two cut-offs. It judges a segment on the
// steady state scaled by 8×workers: a segment under a 4×workers-th of the
// total stays whole, and the replica count halves until each replica
// carries at least 256 scaled cycles.

// factor is fissFactor's replica count for a segment doing work cycles per
// steady iteration of a graph totalling total, on workers workers.
func factor(workers int, total, work int64) int {
	return (&planBuilder{workers: workers, total: total}).fissFactor(work)
}

func TestFissAllOneTileIsIdentity(t *testing.T) {
	for _, work := range []int64{0, 1, 100000, 300000} {
		if k := factor(1, 300000, work); k != 1 {
			t.Errorf("one worker fisses work %d into %d replicas", work, k)
		}
	}
}

func TestFissAllSkipsZeroAndLightWork(t *testing.T) {
	// total = 100100 on 4 workers: the light segment (100) is below the
	// total/(4*workers) share and the zero-work one has nothing to split.
	for work, want := range map[int64]int{0: 1, 100: 1, 100000: 4} {
		if k := factor(4, 100100, work); k != want {
			t.Errorf("work %d: %d replicas, want %d", work, k, want)
		}
	}
}

func TestFissAllHalvesReplicationForModestWork(t *testing.T) {
	// 20 cycles on 8 workers scale to 1280: 160 per replica over 8, under the
	// 256-cycle floor. Halving stops at k=4, 320 per replica.
	if k := factor(8, 20, 20); k != 4 {
		t.Fatalf("replicas = %d, want k halved 8 -> 4", k)
	}
}

func TestFissAllKeepsTinyWorkWhole(t *testing.T) {
	// 3 cycles pass the share threshold (they are the whole graph) but scale
	// to 192, and halving lands at k=1 (192/2 = 96 < 256): no fission at all.
	if k := factor(8, 3, 3); k != 1 {
		t.Fatalf("tiny segment fissed into %d replicas", k)
	}
}

// TestFissionPlanScaleMatchesReplicas: on the stateless chain every fission
// group holds one replica per tile, so the rewritten steady state covers
// tiles original ones and Scale says so; task parallelism rewrites nothing
// and reports a Scale of 1.
func TestFissionPlanScaleMatchesReplicas(t *testing.T) {
	const tiles = 4
	for _, strat := range []Strategy{StratFineData, StratCoarseData} {
		plan := lower(t, statelessChain(), strat, tiles)
		if plan.Scale != tiles {
			t.Fatalf("%s: Scale = %d, want %d", strat, plan.Scale, tiles)
		}
		// Every fission group in the lowered graph holds tiles replicas,
		// and replica indices never reach the tile count.
		groups := map[string]int{}
		for _, n := range plan.Graph.Nodes {
			base, idx, ok := strings.Cut(n.Name, "/f")
			if !ok {
				continue
			}
			groups[base]++
			var r int
			fmt.Sscanf(idx, "%d", &r)
			if r >= tiles {
				t.Fatalf("%s: replica index %s out of range", strat, n.Name)
			}
		}
		if len(groups) == 0 {
			t.Fatalf("%s: no fission replicas emitted for stateless chain", strat)
		}
		for base, k := range groups {
			if k != tiles {
				t.Fatalf("%s: %s has %d replicas, want %d", strat, base, k, tiles)
			}
		}
	}
	plan := lower(t, statelessChain(), StratTask, tiles)
	if plan.Scale != 1 {
		t.Fatalf("task plan Scale = %d, want 1", plan.Scale)
	}
	for _, n := range plan.Graph.Nodes {
		if strings.Contains(n.Name, "/f") {
			t.Fatalf("task plan emitted replica %s", n.Name)
		}
	}
}
