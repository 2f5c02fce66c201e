package obs

import (
	"bufio"
	"io"
	"math"
	"os"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// Trace event phases (the subset of the Chrome trace_event format the
// recorder emits).
const (
	PhaseSlice   byte = 'X' // complete duration slice (TS + Dur)
	PhaseInstant byte = 'i' // instantaneous marker
	PhaseMeta    byte = 'M' // metadata (lane naming)
)

// Event is one trace record. Timestamps are microseconds since the
// recorder's epoch (Chrome's native unit); Tid selects the lane (one lane
// per filter or tile). Detail is an optional free-form annotation carried
// in args.
type Event struct {
	Name   string
	Cat    string
	Phase  byte
	TS     float64 // microseconds since epoch
	Dur    float64 // microseconds; PhaseSlice only
	Tid    int
	Detail string
}

// Recorder collects trace events from any number of goroutines. The zero
// cost path is a nil *Recorder held by the engines; with a recorder
// attached, each event is one short critical section.
type Recorder struct {
	mu     sync.Mutex
	clock  func() time.Duration // elapsed since epoch; swappable for tests
	events []Event
}

// NewRecorder starts a recorder whose epoch is now.
func NewRecorder() *Recorder {
	start := time.Now()
	return &Recorder{clock: func() time.Duration { return time.Since(start) }}
}

// SetClock replaces the elapsed-time source (deterministic tests).
func (r *Recorder) SetClock(clock func() time.Duration) {
	r.mu.Lock()
	r.clock = clock
	r.mu.Unlock()
}

// Stamp returns the elapsed time since the recorder's epoch.
func (r *Recorder) Stamp() time.Duration {
	r.mu.Lock()
	c := r.clock
	r.mu.Unlock()
	return c()
}

// emit appends the event.
func (r *Recorder) emit(ev Event) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// Lane names a lane (Chrome renders it as the thread name).
func (r *Recorder) Lane(tid int, name string) {
	r.emit(Event{Name: "thread_name", Phase: PhaseMeta, Tid: tid, Detail: name})
}

// Slice records a completed duration slice on a lane from two stamps
// (take them with Stamp before and after the work).
func (r *Recorder) Slice(tid int, name, cat string, start, end time.Duration) {
	r.emit(Event{
		Name: name, Cat: cat, Phase: PhaseSlice, Tid: tid,
		TS:  float64(start) / float64(time.Microsecond),
		Dur: float64(end-start) / float64(time.Microsecond),
	})
}

// Instant records an instantaneous marker on a lane at the current time.
func (r *Recorder) Instant(tid int, name, cat, detail string) {
	r.emit(Event{
		Name: name, Cat: cat, Phase: PhaseInstant, Tid: tid,
		TS: float64(r.Stamp()) / float64(time.Microsecond), Detail: detail,
	})
}

// Events returns a copy of everything recorded so far.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// WriteChromeTrace writes the recorded events as Chrome trace JSON.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTrace(w, r.Events())
}

// WriteFile writes the Chrome trace to path (load via chrome://tracing or
// https://ui.perfetto.dev).
func (r *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteChromeTrace encodes events in the Chrome trace_event JSON array
// format. The encoder is hand-rolled (no reflection, exact control over
// escaping and float formatting) so it is cheap, fuzzable, and always
// produces valid JSON: non-finite floats become 0, invalid UTF-8 becomes
// U+FFFD, and unknown phases are demoted to instants.
func WriteChromeTrace(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	buf := make([]byte, 0, 256)
	bw.WriteString("[\n")
	for i, ev := range events {
		if i > 0 {
			bw.WriteString(",\n")
		}
		buf = appendChromeEvent(buf[:0], ev)
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	bw.WriteString("\n]\n")
	return bw.Flush()
}

// appendChromeEvent serializes one event as a JSON object.
func appendChromeEvent(b []byte, ev Event) []byte {
	ph := ev.Phase
	if ph != PhaseSlice && ph != PhaseInstant && ph != PhaseMeta {
		ph = PhaseInstant
	}
	name := ev.Name
	if ph == PhaseMeta {
		name = "thread_name"
	}
	b = append(b, `{"name":`...)
	b = appendJSONString(b, name)
	if ev.Cat != "" && ph != PhaseMeta {
		b = append(b, `,"cat":`...)
		b = appendJSONString(b, ev.Cat)
	}
	b = append(b, `,"ph":"`...)
	b = append(b, ph, '"')
	if ph != PhaseMeta {
		b = append(b, `,"ts":`...)
		b = appendMicros(b, ev.TS)
		if ph == PhaseSlice {
			b = append(b, `,"dur":`...)
			b = appendMicros(b, ev.Dur)
		}
		if ph == PhaseInstant {
			b = append(b, `,"s":"t"`...) // thread-scoped instant
		}
	}
	b = append(b, `,"pid":0,"tid":`...)
	b = strconv.AppendInt(b, int64(ev.Tid), 10)
	switch {
	case ph == PhaseMeta:
		b = append(b, `,"args":{"name":`...)
		b = appendJSONString(b, ev.Detail)
		b = append(b, `}`...)
	case ev.Detail != "":
		b = append(b, `,"args":{"detail":`...)
		b = appendJSONString(b, ev.Detail)
		b = append(b, `}`...)
	}
	return append(b, '}')
}

// appendMicros formats a microsecond timestamp with nanosecond precision,
// mapping non-finite values to 0 so the output stays valid JSON.
func appendMicros(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	return strconv.AppendFloat(b, v, 'f', 3, 64)
}

const hexDigits = "0123456789abcdef"

// appendJSONString escapes s as a JSON string literal. Control characters
// are \u-escaped and invalid UTF-8 sequences become the replacement
// character, so arbitrary byte strings still encode to valid JSON.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
			i++
		case c < 0x20:
			switch c {
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				b = append(b, `�`...)
			} else {
				b = append(b, s[i:i+size]...)
			}
			i += size
		}
	}
	return append(b, '"')
}
