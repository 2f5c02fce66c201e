package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRecorder replays a fixed event sequence on a deterministic clock.
func goldenRecorder() *Recorder {
	r := NewRecorder()
	now := time.Duration(0)
	r.SetClock(func() time.Duration { return now })
	r.Lane(0, "source")
	r.Lane(1, "lowpass")
	r.Slice(0, "firing 0", "firing", 10*time.Microsecond, 35*time.Microsecond+500*time.Nanosecond)
	now = 40 * time.Microsecond
	r.Instant(1, "deliver setFreq", "teleport", "lowpass")
	r.Slice(1, "firing 0", "firing", 42*time.Microsecond, 61*time.Microsecond)
	now = 70 * time.Microsecond
	r.Instant(0, "fault: stall", "fault", "source")
	return r
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch (run with -update to regenerate)\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRecorder().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("trace is not valid JSON:\n%s", buf.String())
	}
	checkGolden(t, "trace_golden.json", buf.Bytes())
}

// TestChromeTraceStructure decodes the trace generically and checks the
// invariants Chrome's trace viewer relies on.
func TestChromeTraceStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRecorder().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(events) != 6 {
		t.Fatalf("got %d events, want 6", len(events))
	}
	lanes := 0
	for _, ev := range events {
		ph, _ := ev["ph"].(string)
		switch ph {
		case "M":
			lanes++
			if ev["name"] != "thread_name" {
				t.Errorf("metadata event named %v, want thread_name", ev["name"])
			}
			args, _ := ev["args"].(map[string]any)
			if args == nil || args["name"] == "" {
				t.Errorf("metadata event without args.name: %v", ev)
			}
		case "X":
			if _, ok := ev["dur"].(float64); !ok {
				t.Errorf("slice without dur: %v", ev)
			}
			fallthrough
		case "i":
			if _, ok := ev["ts"].(float64); !ok {
				t.Errorf("event without ts: %v", ev)
			}
			if ph == "i" && ev["s"] != "t" {
				t.Errorf("instant without thread scope: %v", ev)
			}
		default:
			t.Errorf("unexpected phase %q", ph)
		}
		if _, ok := ev["pid"].(float64); !ok {
			t.Errorf("event without pid: %v", ev)
		}
		if _, ok := ev["tid"].(float64); !ok {
			t.Errorf("event without tid: %v", ev)
		}
	}
	if lanes != 2 {
		t.Errorf("got %d lane metadata events, want 2", lanes)
	}
}

func TestWriteChromeTraceHostileInput(t *testing.T) {
	events := []Event{
		{Name: "nan", Phase: PhaseSlice, TS: math.NaN(), Dur: math.Inf(1), Tid: -3},
		{Name: "bad\xffutf8\x00ctl\"quote\\slash", Cat: "c\nat", Phase: PhaseInstant, Detail: "d\tetail"},
		{Name: "unknown phase", Phase: 'q', TS: 1},
		{Name: "meta keeps detail", Phase: PhaseMeta, Detail: "lane \u2603"},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("hostile input produced invalid JSON:\n%s", buf.String())
	}
	var decoded []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if ts := decoded[0]["ts"].(float64); ts != 0 {
		t.Errorf("NaN ts encoded as %v, want 0", ts)
	}
	if dur := decoded[0]["dur"].(float64); dur != 0 {
		t.Errorf("Inf dur encoded as %v, want 0", dur)
	}
	if ph := decoded[2]["ph"]; ph != "i" {
		t.Errorf("unknown phase encoded as %v, want demotion to i", ph)
	}
}

func TestRecorderWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := goldenRecorder().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Errorf("written trace is not valid JSON")
	}
}

// FuzzTraceEncoder feeds arbitrary event fields through the hand-rolled
// encoder and asserts the output is always valid JSON that decodes to the
// same number of records.
func FuzzTraceEncoder(f *testing.F) {
	f.Add("firing", "cat", "detail", byte('X'), 1.5, 2.5, 3)
	f.Add("bad\xffname", "", "d\x00", byte('M'), math.NaN(), math.Inf(-1), -1)
	f.Add("", "c", "", byte(0), 0.0, 0.0, 0)
	f.Fuzz(func(t *testing.T, name, cat, detail string, phase byte, ts, dur float64, tid int) {
		events := []Event{
			{Name: name, Cat: cat, Detail: detail, Phase: phase, TS: ts, Dur: dur, Tid: tid},
			{Name: name, Phase: PhaseMeta, Detail: detail, Tid: tid},
		}
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, events); err != nil {
			t.Fatalf("encode: %v", err)
		}
		if !json.Valid(buf.Bytes()) {
			t.Fatalf("invalid JSON for %+v:\n%s", events[0], buf.String())
		}
		var decoded []map[string]any
		if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(decoded) != len(events) {
			t.Fatalf("decoded %d events, want %d", len(decoded), len(events))
		}
	})
}
