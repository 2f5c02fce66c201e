package machine

import (
	"fmt"
	"io"
	"sort"

	"streamit/internal/obs"
)

// TraceEvent records one node execution interval during simulation, in
// simulated cycles.
type TraceEvent struct {
	Node  string
	Tile  int
	Iter  int
	Start int64
	End   int64
}

// SimulateTrace runs Simulate while recording per-node execution intervals
// (compute time only; transfers appear as gaps). The event list is ordered
// by issue time per tile.
func SimulateTrace(g *WGraph, m *Mapping, cfg Config, iters int) (*Result, []TraceEvent, error) {
	events := make([]TraceEvent, 0, iters*len(g.Nodes))
	res, err := simulateHooked(g, m, cfg, iters, func(ev TraceEvent) {
		events = append(events, ev)
	})
	if err != nil {
		return nil, nil, err
	}
	return res, events, nil
}

// WriteChromeTrace renders events in the Chrome tracing JSON array format
// (load in chrome://tracing or Perfetto): one row per tile, one slice per
// node execution. Simulator events convert onto the shared internal/obs
// event stream, so NoC traces and runtime-engine traces use one encoder
// and one file format.
func WriteChromeTrace(w io.Writer, events []TraceEvent) error {
	tiles := map[int]bool{}
	for _, ev := range events {
		tiles[ev.Tile] = true
	}
	ids := make([]int, 0, len(tiles))
	for t := range tiles {
		ids = append(ids, t)
	}
	sort.Ints(ids)
	out := make([]obs.Event, 0, len(events)+len(ids))
	for _, t := range ids {
		out = append(out, obs.Event{Name: "thread_name", Phase: obs.PhaseMeta,
			Tid: t, Detail: fmt.Sprintf("tile %d", t)})
	}
	for _, ev := range events {
		out = append(out, obs.Event{
			Name:  fmt.Sprintf("%s (iter %d)", ev.Node, ev.Iter),
			Cat:   "compute",
			Phase: obs.PhaseSlice,
			// One simulated cycle = one microsecond of trace time keeps
			// viewers happy.
			TS:  float64(ev.Start),
			Dur: float64(ev.End - ev.Start),
			Tid: ev.Tile,
		})
	}
	return obs.WriteChromeTrace(w, out)
}
