package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"
)

// workers is the parallelism of every workload: mapped workers, serve pool
// and clients, dist shards. It is a constant, never nproc, so results from
// different boxes compare; a box with fewer cores is flagged oversubscribed.
const workers = 2

// env is the machine record stamped on every result.
type env struct {
	NumCPU         int    `json:"num_cpu"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	GoVersion      string `json:"go_version"`
	Commit         string `json:"commit"`
	Seed           int64  `json:"seed"`
	Seconds        int    `json:"seconds"`
	Scale          string `json:"scale"`
	Workers        int    `json:"workers"`
	Oversubscribed bool   `json:"oversubscribed"`
}

func stampEnv(cfg config) env {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return env{
		NumCPU:         runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		GoVersion:      runtime.Version(),
		Commit:         commit,
		Seed:           cfg.seed,
		Seconds:        cfg.seconds,
		Scale:          cfg.scale.name,
		Workers:        workers,
		Oversubscribed: workers > runtime.NumCPU(),
	}
}

// metric is one reported number. Value, what the benchmark gates on, is the
// summary's median.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	summary
	// Oversubscribed is set on the metrics that read as a parallel speedup:
	// they may not be quoted without it.
	Oversubscribed *bool `json:"oversubscribed,omitempty"`
}

// result is everything one run of one workload reports.
type result struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Env       env      `json:"env"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	FailRatio float64  `json:"fail_ratio"`
	Failures  []string `json:"failures,omitempty"`
	// Host is the reference kernel's readings as multiples of their time on
	// the quiet reference box: how much slower the host ran. Every reported
	// time is already scaled by the readings around it.
	Host      summary            `json:"host_slowdown_x"`
	Metrics   map[string]metric  `json:"metrics"`
	NotOnPath []string           `json:"not_on_path,omitempty"`
	Apps      map[string]appRow  `json:"apps,omitempty"`
	SelfUS    map[string]float64 `json:"layer_self_us,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`

	mu          sync.Mutex
	wrongOutput bool
}

// appRow is the per-program detail behind the geometric means.
type appRow map[string]float64

func newResult(workload string, cfg config) *result {
	return &result{
		Workload: workload, Traced: cfg.trace, Env: stampEnv(cfg),
		Metrics: map[string]metric{}, Apps: map[string]appRow{},
	}
}

// op counts one operation — an app repetition, a request, a verification —
// and records why it failed when it did. Safe for concurrent use.
func (r *result) op(what string, err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Attempted++
	if err == nil {
		return true
	}
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf("%s: %v", what, err))
	}
	return false
}

// verified counts one output verification; a wrong output also clears the
// result's correct flag.
func (r *result) verified(what string, err error) {
	if !r.op("verify "+what, err) {
		r.mu.Lock()
		r.wrongOutput = true
		r.mu.Unlock()
	}
}

// set reports a metric at the median of its samples; min, max and the
// sample count sit beside it.
func (r *result) set(name, unit string, s summary) {
	r.Metrics[name] = metric{Value: s.Median, Unit: unit, summary: s}
}

func (r *result) setPoint(name, unit string, v float64) { r.set(name, unit, point(v)) }

func (r *result) row(app string) appRow {
	if r.Apps[app] == nil {
		r.Apps[app] = appRow{}
	}
	return r.Apps[app]
}

// finish closes the books: the metric set becomes exactly the catalogue's
// for this pass, differentials that noise pushed below zero read zero, and
// the speedup metrics get their oversubscription flag.
func (r *result) finish() {
	want := endToEnd
	if r.Traced {
		want = perLayer
	}
	out := map[string]metric{}
	for _, d := range want {
		m, ok := r.Metrics[d.Name]
		if !ok {
			// Only per-layer metrics may be absent: the workload's items do
			// not pass through that layer. They read zero and are listed.
			m = metric{Unit: d.Unit}
			r.NotOnPath = append(r.NotOnPath, d.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.op("metric "+d.Name, fmt.Errorf("value is %v", m.Value))
			m = metric{Unit: d.Unit}
		}
		if m.Value < 0 {
			m = metric{Unit: d.Unit, summary: summary{N: m.N}}
		}
		if d.Name == "exec.mapped_vs_seq_x" || d.Name == "exec.parallel_eff" {
			over := r.Env.Oversubscribed
			m.Oversubscribed = &over
		}
		out[d.Name] = m
	}
	r.Metrics = out
	r.Correct = !r.wrongOutput
	if r.Attempted > 0 {
		r.FailRatio = float64(r.Failed) / float64(r.Attempted)
	}
}

// print renders the human-readable table.
func (r *result) print(w io.Writer) {
	e := r.Env
	pass := "end-to-end"
	if r.Traced {
		pass = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s · %s · seed %d · %d s · scale %s\n", r.Workload, pass, e.Seed, e.Seconds, e.Scale)
	fmt.Fprintf(w, "   NumCPU %d GOMAXPROCS %d %s commit %s workers %d oversubscribed %t\n",
		e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Commit, e.Workers, e.Oversubscribed)
	fmt.Fprintf(w, "   host ran at %.2f× the reference box's time (%.2f to %.2f over %d readings); times below are stated at its speed\n",
		r.Host.Median, r.Host.Min, r.Host.Max, r.Host.N)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tmedian\tmin\tmax\tn\t")
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	skipped := map[string]bool{}
	for _, n := range r.NotOnPath {
		skipped[n] = true
	}
	for _, name := range names {
		m := r.Metrics[name]
		if skipped[name] {
			continue
		}
		note := ""
		if m.Oversubscribed != nil {
			note = fmt.Sprintf("oversubscribed=%t", *m.Oversubscribed)
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%.6g\t%.6g\t%.6g\t%d\t%s\n", name, m.Value, m.Unit, m.Median, m.Min, m.Max, m.N, note)
	}
	fmt.Fprintf(tw, "fail_ratio\t%.6g\tratio\t\t\t\t%d\t%d failed\n", r.FailRatio, r.Attempted, r.Failed)
	tw.Flush()
	if len(r.NotOnPath) > 0 {
		fmt.Fprintf(w, "   %d per-layer metrics are not on this workload's path and read 0\n", len(r.NotOnPath))
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAIL %s\n", f)
	}
}

// driverLine is the one-line JSON object the benchmark contract asks for.
func (r *result) driverLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for name, m := range r.Metrics {
		line.Metrics[name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // finish replaced every NaN and Inf; nothing else can fail to encode
	}
	return string(b)
}

// writeFile stores the machine-readable result under dir.
func (r *result) writeFile(dir string) error {
	name := "result-" + r.Workload
	if r.Traced {
		name += "-trace"
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), append(b, '\n'), 0o644)
}
