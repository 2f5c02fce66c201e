package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"testing"

	"streamit/internal/exec"
)

// benchmarkJSON is the whole of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) (*sources, benchmarkJSON) {
	t.Helper()
	src, err := findSources()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(src.root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return src, m
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestCatalogueMatchesManifest: BENCHMARK.json and the harness name the
// same workloads and metrics, with the same units, directions and bounds.
func TestCatalogueMatchesManifest(t *testing.T) {
	_, m := readManifest(t)
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads %v, harness runs %v", names, workloadNames)
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(m.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		g := m.EndToEnd[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, harness %+v", i, g, d)
		}
	}
	if len(m.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness (at most 128)", len(m.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		g := m.PerLayer[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, harness %+v", i, g, d)
		}
		if !metricName.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("per-layer metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 || len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", m.RunSeconds, m.Paths)
	}
}

// TestVerificationCountsFailures: a corrupted golden entry and a truncated
// sink stream are both reported as failures — never a silent pass, never a
// panic — and raise the failure ratio.
func TestVerificationCountsFailures(t *testing.T) {
	src, err := findSources()
	if err != nil {
		t.Fatal(err)
	}
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	check, err := golden.check("FMRadio", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	c, err := src.compileProgram("FMRadio")
	if err != nil {
		t.Fatal(err)
	}
	got, err := runSequentialTapped(c, exec.BackendVM, check.Iters)
	if err != nil {
		t.Fatal(err)
	}
	if err := check.compare(got); err != nil {
		t.Fatalf("the VM disagrees with the golden prefix: %v", err)
	}

	corrupted := check
	corrupted.Sinks = slices.Clone(check.Sinks)
	corrupted.Sinks[0].FNV64 = "0000000000000000"
	truncated := map[string][]float64{}
	for name, vs := range got {
		truncated[name] = vs[:len(vs)-1]
	}
	res := newResult("seq-suite", config{scale: scales["tiny"]})
	res.verified("good", check.compare(got))
	res.verified("corrupted golden", corrupted.compare(got))
	res.verified("truncated stream", check.compare(truncated))
	res.verified("missing sink", check.compare(map[string][]float64{}))
	res.finish()
	if res.Attempted != 4 || res.Failed != 3 || res.Correct || res.FailRatio != 0.75 {
		t.Fatalf("attempted %d failed %d correct %t ratio %g; want 4, 3, false, 0.75",
			res.Attempted, res.Failed, res.Correct, res.FailRatio)
	}
	var line struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(res.driverLine()), &line); err != nil || line.Correct || line.Failed != 3 {
		t.Fatalf("driver line %s (%v)", res.driverLine(), err)
	}
}

// TestSmoke runs every workload at the tiny scale, both passes, and checks
// what the benchmark contract and the README promise about the output.
func TestSmoke(t *testing.T) {
	src, m := readManifest(t)
	var e2e, layers []string
	for _, d := range m.EndToEnd {
		e2e = append(e2e, d.Name)
	}
	for _, d := range m.PerLayer {
		layers = append(layers, d.Name)
	}
	sort.Strings(e2e)
	sort.Strings(layers)
	for _, w := range m.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{seed: 1, seconds: 1, trace: traced, scale: scales["tiny"], outDir: t.TempDir()}
			res, err := runWorkload(w.Name, cfg, src)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.Name, traced, err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
				t.Errorf("%s traced=%t: attempted %d failed %d correct %t: %v", w.Name, traced, res.Attempted, res.Failed, res.Correct, res.Failures)
			}
			want := e2e
			if traced {
				want = layers
			}
			var got []string
			for name, mt := range res.Metrics {
				got = append(got, name)
				if !metricName.MatchString(name) {
					t.Errorf("%s: metric name %q", w.Name, name)
				}
				if math.IsNaN(mt.Value) || math.IsInf(mt.Value, 0) || mt.Value < 0 {
					t.Errorf("%s: %s = %v", w.Name, name, mt.Value)
				}
				if !traced && mt.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is zero", w.Name, name)
				}
			}
			sort.Strings(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s traced=%t: emitted %v, BENCHMARK.json names %v", w.Name, traced, got, want)
			}
			checkDriverLine(t, res.driverLine(), want)
			over := workers > runtime.NumCPU()
			if res.Env.Oversubscribed != over || res.Env.GoVersion == "" || res.Env.Workers != workers || res.Env.Seed != 1 {
				t.Errorf("%s: environment stamp %+v", w.Name, res.Env)
			}
			if traced {
				for _, name := range []string{"exec.mapped_vs_seq_x", "exec.parallel_eff"} {
					if res.Metrics[name].Oversubscribed == nil {
						t.Errorf("%s: %s is reported without the oversubscribed flag", w.Name, name)
					}
				}
				checkTrace(t, res.TraceFile)
			} else if res.TraceFile != "" {
				t.Errorf("%s: the end-to-end pass recorded a trace", w.Name)
			}
			if err := res.writeFile(cfg.outDir); err != nil {
				t.Error(err)
			}
		}
	}
}

// checkDriverLine: exactly the four keys, and per metric exactly value and
// unit.
func checkDriverLine(t *testing.T, line string, want []string) {
	t.Helper()
	var top map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &top); err != nil {
		t.Fatalf("driver line: %v", err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Errorf("driver line has keys %v", keys)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(top["metrics"], &metrics); err != nil {
		t.Fatalf("driver line metrics: %v", err)
	}
	if len(metrics) != len(want) {
		t.Errorf("driver line has %d metrics, want %d", len(metrics), len(want))
	}
	for name, mv := range metrics {
		_, hasValue := mv["value"].(float64)
		_, hasUnit := mv["unit"].(string)
		if len(mv) != 2 || !hasValue || !hasUnit {
			t.Errorf("driver line metric %s: %v", name, mv)
		}
	}
}

// checkTrace loads a Chrome trace and requires the slices of every lane to
// nest: two spans of one operation either do not overlap or one contains
// the other.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Ph  string  `json:"ph"`
		TS  float64 `json:"ts"`
		Dur float64 `json:"dur"`
		Tid int     `json:"tid"`
		Cat string  `json:"cat"`
	}
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("%s does not load: %v", path, err)
	}
	type span struct{ start, end float64 }
	lanes := map[int][]span{}
	for _, ev := range events {
		if ev.Ph == "X" {
			if ev.Cat == "" {
				t.Errorf("%s: a slice has no layer", path)
			}
			lanes[ev.Tid] = append(lanes[ev.Tid], span{ev.TS, ev.TS + ev.Dur})
		}
	}
	if len(lanes) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	const eps = 1e-3 // microseconds; float rounding of start + duration
	for tid, spans := range lanes {
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].start != spans[j].start {
				return spans[i].start < spans[j].start
			}
			return spans[i].end > spans[j].end
		})
		var stack []span
		for _, s := range spans {
			for len(stack) > 0 && stack[len(stack)-1].end <= s.start+eps {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 && s.end > stack[len(stack)-1].end+eps {
				t.Errorf("%s lane %d: span [%f, %f] straddles the end of [%f, %f]", path, tid,
					s.start, s.end, stack[len(stack)-1].start, stack[len(stack)-1].end)
			}
			stack = append(stack, s)
		}
	}
}

// TestCompareRuns: -repeat flags two sets of runs that are further apart
// than a bound, whichever is the better one, and a metric that is zero or
// missing; it passes sets that agree.
func TestCompareRuns(t *testing.T) {
	src, m := readManifest(t)
	run := func(scale float64) []*result {
		r := newResult("seq-suite", config{scale: scales["tiny"]})
		for _, d := range m.EndToEnd {
			v := 100.0
			if d.Name == "items_per_s" {
				v *= scale
			}
			r.setPoint(d.Name, d.Unit, v)
		}
		r.finish()
		return []*result{r}
	}
	for _, c := range []struct {
		second float64
		agree  bool
	}{{0.99, true}, {1.01, true}, {0.5, false}, {2, false}, {0, false}} {
		var out bytes.Buffer
		if ok, err := compareRuns(&out, src, [][]*result{run(1), run(c.second)}); err != nil || ok != c.agree {
			t.Errorf("items_per_s × %g: agree %t, want %t (%v):\n%s", c.second, ok, c.agree, err, out.String())
		}
	}
}
