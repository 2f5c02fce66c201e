package exec

import (
	"fmt"
	"strings"
	"time"

	"streamit/internal/wfunc"
)

// ExecError is a structured runtime failure of one node firing. Tape
// misuse (pop on empty, peek out of range), IL runtime errors, injected
// faults, and native-kernel panics all surface as (or wrapped in) an
// ExecError so callers can recover the failing filter, operation, and
// firing index programmatically instead of parsing a panic string.
type ExecError struct {
	Filter    string // node name
	Op        string // "pop", "peek", "push", "work", "injected panic", "injected stall", ...
	Iteration int64  // the filter's firing index when the fault occurred
	Err       error  // underlying cause (may be nil for pure tape faults)
}

// Error implements error.
func (e *ExecError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("exec: filter %s: %s at firing %d: %v", e.Filter, e.Op, e.Iteration, e.Err)
	}
	return fmt.Sprintf("exec: filter %s: %s at firing %d", e.Filter, e.Op, e.Iteration)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *ExecError) Unwrap() error { return e.Err }

// asExecError converts a recovered panic value into an *ExecError carrying
// the node and firing context: a ring's wfunc.TapeFault keeps its
// operation, anything else is the work's fault.
func asExecError(filter string, firing int64, r any) *ExecError {
	switch r := r.(type) {
	case *ExecError:
		return r
	case wfunc.TapeFault:
		return &ExecError{Filter: filter, Op: r.Op, Iteration: firing, Err: fmt.Errorf("%s", r.Detail)}
	case error:
		return &ExecError{Filter: filter, Op: "work", Iteration: firing, Err: r}
	default:
		return &ExecError{Filter: filter, Op: "work", Iteration: firing, Err: fmt.Errorf("%v", r)}
	}
}

// FilterStatus is one node's wait state in a deadlock report: what it was
// last seen doing, on which tape, and for how long.
type FilterStatus struct {
	Name     string
	Worker   int           // mapped-engine worker/partition running the node (-1 elsewhere)
	State    string        // "waiting recv", "waiting send", "stalled (injected)"
	Edge     string        // "Src->Dst" tape name, when blocked on one
	Buffered int           // items visible to the node on that tape
	Blocked  time.Duration // how long it has been in this state
}

func (s FilterStatus) String() string {
	b := s.Name
	if s.Worker >= 0 {
		b += fmt.Sprintf(" (worker %d)", s.Worker)
	}
	b += ": " + s.State
	if s.Edge != "" {
		b += fmt.Sprintf(" on %s (%d items buffered)", s.Edge, s.Buffered)
	}
	if s.Blocked > 0 {
		b += fmt.Sprintf(" for %s", s.Blocked.Round(time.Millisecond))
	}
	return b
}

// DeadlockError reports a run that cannot move: on the mapped engine, no
// batch moved anywhere for at least Interval (the watchdog's verdict); on
// the dynamic engine, a pass of its data-driven loop neither fired nor
// rewound while the sinks were short (Interval 0). Blocked lists every node still waiting
// and what it is waiting on; Cycle names the wait-cycle (or terminal chain)
// traced through the blocked nodes.
type DeadlockError struct {
	Engine   string // "mapped" or "dynamic"
	Interval time.Duration
	Blocked  []FilterStatus
	Cycle    []string
}

// Error implements error.
func (e *DeadlockError) Error() string {
	var b strings.Builder
	if e.Interval > 0 {
		fmt.Fprintf(&b, "exec: %s engine watchdog: no progress for %s", e.Engine, e.Interval.Round(time.Millisecond))
	} else {
		fmt.Fprintf(&b, "exec: %s engine deadlock: no node can fire", e.Engine)
	}
	for _, s := range e.Blocked {
		b.WriteString("; ")
		b.WriteString(s.String())
	}
	if len(e.Cycle) > 0 {
		fmt.Fprintf(&b, "; wait-cycle: %s", strings.Join(e.Cycle, " -> "))
	}
	return b.String()
}
