// Command benchmark is the repository's one trusted benchmark: five closed
// workloads, eight gated end-to-end metrics plus the failure ratio, output
// verification in every run, and a traced pass that attributes the time to
// layers. See README.md in this directory.
//
//	go run ./benchmark -workload all -seed 1
//	go run ./benchmark -workload serve-fleet -trace 1
//	go run ./benchmark -workload all -repeat 2
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds int
	trace   bool
	scale   scale
	outDir  string // result and trace files, temporary snapshot directories: benchmark/out
}

// budget is the measuring time of one workload. The smoke scale has none:
// every loop runs its minimum count.
func (c config) budget() time.Duration {
	if !c.scale.timed {
		return 0
	}
	return time.Duration(c.seconds) * time.Second
}

func main() {
	var (
		workload  = flag.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames, ", "))
		seed      = flag.Int64("seed", 1, "seeds the serve inputs and request order and the app × repetition order")
		secs      = flag.Int("seconds", 10, "seconds of timed rounds per workload; sets how many repetitions are taken, never how big one is")
		trace     = flag.Int("trace", 0, "1: the traced pass, which reports the per-layer metrics")
		scaleName = flag.String("scale", "full", "full, or tiny for a smoke run")
		repeat    = flag.Int("repeat", 1, "run the workloads this many times and compare the first half of the runs with the second against the bounds in BENCHMARK.json")
		writeGold = flag.Bool("write-golden", false, "regenerate benchmark/golden.json from the interpreter and exit")
	)
	flag.Parse()
	err := func() error {
		src, err := findSources()
		if err != nil {
			return err
		}
		if *writeGold {
			return writeGolden(src, filepath.Join(src.root, "benchmark", "golden.json"))
		}
		sc, ok := scales[*scaleName]
		if !ok {
			return fmt.Errorf("unknown -scale %q (want full or tiny)", *scaleName)
		}
		if *secs < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
			return fmt.Errorf("-seconds and -repeat must be at least 1, -trace 0 or 1")
		}
		cfg := config{seed: *seed, seconds: *secs, trace: *trace == 1, scale: sc,
			outDir: filepath.Join(src.root, "benchmark", "out")}
		return run(*workload, *repeat, cfg, src)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// run runs the named workload (or all of them) repeat times, prints and
// stores every result, compares the two halves of the runs when there are
// several, and ends with the contract's JSON line per workload. A failed
// operation, a wrong output or a disagreement is an error whatever repeat is.
func run(workload string, repeat int, cfg config, src *sources) error {
	names := []string{workload}
	if workload == "all" {
		names = workloadNames
	} else if !slices.Contains(workloadNames, workload) {
		return fmt.Errorf("unknown -workload %q (want all or one of %s)", workload, strings.Join(workloadNames, ", "))
	}
	// runs[i][w] is workload w's result in the i-th repetition.
	var runs [][]*result
	failed := false
	for i := 0; i < repeat; i++ {
		var set []*result
		for _, name := range names {
			res, err := runWorkload(name, cfg, src)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			res.print(os.Stdout)
			if err := res.writeFile(cfg.outDir); err != nil {
				return err
			}
			failed = failed || res.Failed > 0 || !res.Correct
			set = append(set, res)
		}
		runs = append(runs, set)
	}
	if repeat > 1 {
		ok, err := compareRuns(os.Stdout, src, runs)
		if err != nil {
			return err
		}
		failed = failed || !ok
	}
	// The contract's line comes last, one per workload run.
	for _, res := range runs[len(runs)-1] {
		fmt.Println(res.driverLine())
	}
	if failed {
		return fmt.Errorf("operations failed, an output was wrong, or runs disagree beyond a bound")
	}
	return nil
}

// runWorkload runs one workload once: the end-to-end pass, or with
// cfg.trace the traced pass.
func runWorkload(name string, cfg config, src *sources) (*result, error) {
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	// One processor: see README.md, "One processor".
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b := &bench{
		cfg: cfg, src: src, golden: golden,
		res:  newResult(name, cfg),
		rng:  rand.New(rand.NewSource(cfg.seed)),
		host: &host{},
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	if cfg.trace {
		b.tr = newTracer()
	}
	switch name {
	case "serve-fleet":
		b.runServe()
	default:
		w := compiledByName(name)
		if cfg.trace {
			b.traceCompiled(w)
		} else {
			b.runCompiled(w)
		}
	}
	if b.tr != nil {
		b.res.SelfUS = selfTimes(b.tr.rec.Events())
		b.res.TraceFile = filepath.Join(cfg.outDir, "trace-"+name+".json")
		if err := b.tr.rec.WriteFile(b.res.TraceFile); err != nil {
			return nil, err
		}
	}
	b.res.Host = b.host.slowdown()
	b.res.finish()
	return b.res, nil
}

func compiledByName(name string) *compiledWorkload {
	for _, w := range []*compiledWorkload{seqSuite, mappedFission, mappedSWP, mappedCkpt} {
		if w.name == name {
			return w
		}
	}
	return nil
}

// manifest is the part of BENCHMARK.json -repeat reads.
type manifest struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareRuns splits the runs into a first and a second half and prints,
// per end-to-end metric × workload, both halves' medians and how far apart
// they are — the larger over the smaller, in either direction: two sets of
// runs of one commit that disagree by more than the bound disagree, whichever
// came first — against the bound in BENCHMARK.json. It reports whether every
// pair agrees within its bound, no metric is missing or zero, and no
// operation failed.
func compareRuns(w io.Writer, src *sources, runs [][]*result) (bool, error) {
	raw, err := os.ReadFile(filepath.Join(src.root, "BENCHMARK.json"))
	if err != nil {
		return false, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	half := len(runs) / 2
	first, second := runs[:half], runs[len(runs)-half:]
	ok := true
	fmt.Fprintf(w, "== repeat: median of runs 1-%d against median of runs %d-%d\n", half, len(runs)-half+1, len(runs))
	fmt.Fprintf(w, "%-16s %-14s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "apart", "bound")
	for i, res := range runs[0] {
		for _, d := range m.EndToEnd {
			of := func(set [][]*result) float64 {
				var vs []float64
				for _, run := range set {
					vs = append(vs, run[i].Metrics[d.Name].Value)
				}
				return median(vs)
			}
			a, z := of(first), of(second)
			apart, verdict := 0.0, ""
			if lo := min(a, z); lo > 0 {
				apart = max(a, z)/lo - 1
			} else {
				verdict, ok = " MISSING OR ZERO", false
			}
			if apart > d.Bound {
				verdict, ok = " EXCEEDS", false
			}
			fmt.Fprintf(w, "%-16s %-14s %14.6g %14.6g %7.1f%% %5.0f%%%s\n",
				res.Workload, d.Name, a, z, apart*100, d.Bound*100, verdict)
		}
		for _, run := range runs {
			if run[i].Failed > 0 || !run[i].Correct {
				fmt.Fprintf(w, "%-16s fail_ratio %g: any failure fails\n", res.Workload, run[i].FailRatio)
				ok = false
			}
		}
	}
	return ok, nil
}
