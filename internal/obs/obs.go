// Package obs is the observability layer shared by every execution engine
// and both work-function backends: a per-filter profiler (firings, tape
// traffic, work and stall time, buffer high-water marks) and a Chrome
// trace_event recorder.
//
// The paper's evaluation hinges on measuring where cycles go — per-filter
// work estimates drive partitioning and the Raw results report throughput
// and utilization per mapping — so this reproduction makes the same
// quantities observable at runtime. Everything here is designed for a
// zero-cost disabled path: engines hold nil pointers when observability is
// off, and every counter update is a single atomic add when it is on, so
// the profiler is safe under the concurrent engines without locks.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"text/tabwriter"
	"time"
)

// FilterStats is one node's live profile: lock-free atomic counters
// updated from the engine hot path. All engines and backends update the
// same counter set, which is what makes cross-engine conformance checkable
// (see the exec conformance suite).
type FilterStats struct {
	name    string
	firings atomic.Int64
	pushed  atomic.Int64
	popped  atomic.Int64
	peeked  atomic.Int64
	workNS  atomic.Int64
	stallNS atomic.Int64
	tapeHWM atomic.Int64
}

// AddFiring counts one completed firing.
func (s *FilterStats) AddFiring() { s.firings.Add(1) }

// AddPushes counts n items pushed to the output tapes. Engines credit a
// firing's traffic once per firing, not per item.
func (s *FilterStats) AddPushes(n int64) { s.pushed.Add(n) }

// AddPops counts n items popped from the input tapes.
func (s *FilterStats) AddPops(n int64) { s.popped.Add(n) }

// AddPeeks counts n items of peek window.
func (s *FilterStats) AddPeeks(n int64) { s.peeked.Add(n) }

// AddCounts credits d's firings and tape traffic, as if its firings had
// run here: how a reset engine replays the init phase it does not re-run.
func (s *FilterStats) AddCounts(d FilterProfile) {
	s.firings.Add(d.Firings)
	s.pushed.Add(d.Pushed)
	s.popped.Add(d.Popped)
	s.peeked.Add(d.Peeked)
}

// AddWork accumulates time spent inside the work function.
func (s *FilterStats) AddWork(d time.Duration) { s.workNS.Add(int64(d)) }

// AddStall accumulates time spent blocked on a tape (waiting to receive
// input or to ship output). Always zero on the single-threaded engines.
func (s *FilterStats) AddStall(d time.Duration) { s.stallNS.Add(int64(d)) }

// NoteOccupancy raises the output-tape occupancy high-water mark to n if
// it is higher than the current mark.
func (s *FilterStats) NoteOccupancy(n int64) {
	for {
		cur := s.tapeHWM.Load()
		if n <= cur || s.tapeHWM.CompareAndSwap(cur, n) {
			return
		}
	}
}

// FilterProfile is an immutable snapshot of one node's counters. Pushed
// and Popped are the items the node's committed firings moved. Peeked is
// the declared peek window summed over a filter's firings (a window of
// peek items per firing, whatever the work read of it); it is 0 for
// splitters and joiners.
type FilterProfile struct {
	Name    string `json:"name"`
	Firings int64  `json:"firings"`
	Pushed  int64  `json:"pushed"`
	Popped  int64  `json:"popped"`
	Peeked  int64  `json:"peeked"`
	WorkNS  int64  `json:"work_ns"`
	StallNS int64  `json:"stall_ns"`
	TapeHWM int64  `json:"tape_hwm"`
}

// Profiler holds one FilterStats per graph node, indexed by node ID. It is
// shared between an engine and any helper engines it spawns (the parallel
// engine's init transient), so counters always cover the whole run.
type Profiler struct {
	stats []*FilterStats
}

// NewProfiler builds a profiler for the given node names (indexed by node
// ID, the engines' natural indexing).
func NewProfiler(names []string) *Profiler {
	p := &Profiler{stats: make([]*FilterStats, len(names))}
	for i, n := range names {
		p.stats[i] = &FilterStats{name: n}
	}
	return p
}

// At returns the stats cell for node id.
func (p *Profiler) At(id int) *FilterStats { return p.stats[id] }

// Snapshot returns every node's counters, sorted by name.
func (p *Profiler) Snapshot() []FilterProfile {
	out := make([]FilterProfile, 0, len(p.stats))
	for _, s := range p.stats {
		out = append(out, FilterProfile{
			Name:    s.name,
			Firings: s.firings.Load(),
			Pushed:  s.pushed.Load(),
			Popped:  s.popped.Load(),
			Peeked:  s.peeked.Load(),
			WorkNS:  s.workNS.Load(),
			StallNS: s.stallNS.Load(),
			TapeHWM: s.tapeHWM.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Table renders the per-filter profile as an aligned text table (the
// streamit-run -profile report). Nodes that never fired are omitted. The
// "peek window" column is FilterProfile.Peeked: the declared peek window
// times the firings, not a count of peek operations.
func (p *Profiler) Table() string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "filter\tfirings\tpushed\tpopped\tpeek window\twork\twork/firing\tstall\ttape hwm")
	for _, fp := range p.Snapshot() {
		if fp.Firings == 0 {
			continue
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%v\t%v\t%v\t%d\n",
			fp.Name, fp.Firings, fp.Pushed, fp.Popped, fp.Peeked,
			time.Duration(fp.WorkNS).Round(time.Microsecond),
			time.Duration(fp.WorkNS/fp.Firings),
			time.Duration(fp.StallNS).Round(time.Microsecond),
			fp.TapeHWM)
	}
	tw.Flush()
	return b.String()
}
