package main

import (
	"sort"
	"sync/atomic"
	"time"

	"streamit/internal/obs"
)

// tracer records the harness's own spans: one obs.Recorder slice around
// each call into a layer, on the lane of the app run or request that
// caused it (lane = the id spans of one operation share; nesting inside a
// lane is the parent relation). A nil *tracer is the untraced run: every
// method is a no-op, so end-to-end numbers carry no span cost.
type tracer struct {
	rec  *obs.Recorder
	next atomic.Int64
}

func newTracer() *tracer { return &tracer{rec: obs.NewRecorder()} }

// lane opens a new operation id and names it in the trace.
func (t *tracer) lane(name string) int {
	if t == nil {
		return 0
	}
	id := int(t.next.Add(1))
	t.rec.Lane(id, name)
	return id
}

// span starts a slice named layer/op on lane id; call the result to end it.
func (t *tracer) span(id int, layer, op string) func() {
	if t == nil {
		return func() {}
	}
	start := t.rec.Stamp()
	return func() { t.rec.Slice(id, op, layer, start, t.rec.Stamp()) }
}

// timed runs f inside a span and returns how long f took. The duration is
// measured whether or not tracing is on, so layer timings come from the
// same clock reads as the spans around them.
func (t *tracer) timed(id int, layer, op string, f func() error) (time.Duration, error) {
	end := t.span(id, layer, op)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	end()
	return d, err
}

// contains reports whether slice a's interval covers slice b's. Both ends
// come from the same nanosecond clock; the tolerance absorbs the float
// rounding of start + duration in microseconds.
func contains(a, b obs.Event) bool {
	const eps = 1e-3
	return a.TS <= b.TS+eps && b.TS+b.Dur <= a.TS+a.Dur+eps
}

// selfTimes attributes every slice's duration minus the part its child
// slices cover to the slice's layer (its category), in microseconds.
// Within a lane, slice B is a child of A when A's interval contains B's.
func selfTimes(events []obs.Event) map[string]float64 {
	byLane := map[int][]obs.Event{}
	for _, ev := range events {
		if ev.Phase == obs.PhaseSlice {
			byLane[ev.Tid] = append(byLane[ev.Tid], ev)
		}
	}
	self := map[string]float64{}
	for _, evs := range byLane {
		// Parents sort before their children: earlier start first, and on
		// equal starts the longer slice first.
		sort.SliceStable(evs, func(i, j int) bool {
			if evs[i].TS != evs[j].TS {
				return evs[i].TS < evs[j].TS
			}
			return evs[i].Dur > evs[j].Dur
		})
		var stack []obs.Event
		for _, ev := range evs {
			for len(stack) > 0 && !contains(stack[len(stack)-1], ev) {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				self[stack[len(stack)-1].Cat] -= ev.Dur
			}
			self[ev.Cat] += ev.Dur
			stack = append(stack, ev)
		}
	}
	return self
}
