package exec

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"streamit/internal/apps"
	"streamit/internal/ir"
	"streamit/internal/lang"
	"streamit/internal/obs"
	"streamit/internal/wfunc"
)

// blockPrograms are the programs the benchmark runs on the sequential
// engine: the twelve suite apps and the four .str examples.
func blockPrograms(t *testing.T) []apps.App {
	t.Helper()
	progs := apps.Suite()
	for _, name := range []string{"bitonic.str", "filterbank.str", "fmradio.str", "freqhop.str"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "examples", "strprogs", name))
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, apps.App{Name: name, Build: func() *ir.Program {
			prog, err := lang.ParseAndElaborate(string(src), "Main")
			if err != nil {
				t.Fatal(err)
			}
			return prog
		}})
	}
	return progs
}

// TestSequentialBlocks: the sequential engine fires blocks of up to
// StageBatch iterations, cut so a block's ring traffic fits an L1 data
// cache and kept at one on a feedback loop. Its image at every RunSteady
// boundary is byte-equal to that of an engine called one iteration at a
// time, on every benchmark program and both backends; the block size is
// pinned per program; a Printer makes calls run one iteration at a time,
// so two printing filters print in one-iteration order; and a trace
// records one slice per block.
func TestSequentialBlocks(t *testing.T) {
	blocks := map[string]int64{
		"BitonicSort": 5, "TDE": 7, "MPEG2Decoder": 7, "DES": 1, "Serpent": 1, "FFT": 1,
		"ChannelVocoder": 8, "DCT": 8, "FilterBank": 8, "FMRadio": 8, "Vocoder": 8, "Radar": 8,
		"bitonic.str": 8, "filterbank.str": 8, "fmradio.str": 8, "freqhop.str": 8,
	}
	calls := []int{1, 7, 8, 9, 3, 16, 203}
	for _, app := range blockPrograms(t) {
		for _, backend := range []Backend{BackendVM, BackendInterp} {
			t.Run(app.Name+"/"+backend.String(), func(t *testing.T) {
				blocked, single := buildEngine(t, app.Build(), backend), buildEngine(t, app.Build(), backend)
				if want := blocks[app.Name]; blocked.block != want {
					t.Fatalf("block = %d iterations, want %d", blocked.block, want)
				}
				single.block = 1
				for _, e := range []*Engine{blocked, single} {
					if err := e.RunInit(); err != nil {
						t.Fatal(err)
					}
				}
				done := int64(0)
				for _, n := range calls {
					if err := blocked.RunSteady(n); err != nil {
						t.Fatal(err)
					}
					// Constraint-aware scheduling (freqhop.str's) interleaves
					// the iterations of one call, blocks or not: its
					// reference makes the same calls.
					step := 1
					if single.constrained {
						step = n
					}
					for k := 0; k < n; k += step {
						if err := single.RunSteady(step); err != nil {
							t.Fatal(err)
						}
					}
					done += int64(n)
					if !bytes.Equal(checkpointBytes(t, blocked, done), checkpointBytes(t, single, done)) {
						t.Fatalf("images differ after RunSteady(%d), %d iterations in", n, done)
					}
				}
			})
		}
	}
	t.Run("Reverb", func(t *testing.T) {
		if e := buildEngine(t, apps.Reverb(8, 0.6), BackendVM); e.block != 1 {
			t.Fatalf("a feedback loop's block = %d iterations, want 1", e.block)
		}
	})
	t.Run("printer", func(t *testing.T) {
		printer := func(name string) *ir.Filter {
			b := wfunc.NewKernel(name, 1, 1, 1)
			x := b.Local("x")
			b.WorkBody(wfunc.Set(x, wfunc.PopE()), &wfunc.Print{X: x}, wfunc.Push1(x))
			return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
		}
		prog := &ir.Program{Name: "printers", Top: ir.Pipe("main", rampFilter("src"), printer("a"), printer("b"), nullSink("snk", 1))}
		var got []string
		e := buildEngine(t, prog, BackendVM)
		if e.block != StageBatch {
			t.Fatalf("block = %d iterations, want %d", e.block, StageBatch)
		}
		e.Printer = func(node string, v float64) { got = append(got, fmt.Sprintf("%s:%g", node[:1], v)) }
		if err := e.Run(3); err != nil {
			t.Fatal(err)
		}
		if want := "a:0 b:0 a:1 b:1 a:2 b:2"; strings.Join(got, " ") != want {
			t.Fatalf("printed %q, want %q", strings.Join(got, " "), want)
		}
	})
	t.Run("trace", func(t *testing.T) {
		var app apps.App
		for _, a := range apps.Suite() {
			if a.Name == "BitonicSort" {
				app = a
			}
		}
		g, s := flattenApp(t, app)
		rec := obs.NewRecorder()
		e, err := NewFromGraphOpts(g, s, Options{Trace: rec})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(12); err != nil {
			t.Fatal(err)
		}
		var slices []string
		for _, ev := range rec.Events() {
			if ev.Cat == "iteration" {
				slices = append(slices, ev.Name)
			}
		}
		if want := "steady 1 x5,steady 6 x5,steady 11 x2"; strings.Join(slices, ",") != want {
			t.Fatalf("iteration slices %q, want %q", strings.Join(slices, ","), want)
		}
	})
}

// TestSequentialBlockRowFault: a row kernel that reads past its declared
// peek while firing four times an iteration fails at the same firing
// whether a call runs a block of eight iterations or one iteration, where
// its share is one RunHeld entry unheld.
func TestSequentialBlockRowFault(t *testing.T) {
	for _, calls := range [][]int{{16}, {1, 1, 1}} {
		g, s, _ := faultPipelineFrom(t, blockSource(), overreadFIR())
		e, err := NewFromGraphOpts(g, s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err = e.RunInit(); err != nil {
			t.Fatal(err)
		}
		for _, n := range calls {
			if err = e.RunSteady(n); err != nil {
				break
			}
		}
		var ee *ExecError
		if !errors.As(err, &ee) || ee.Op != "peek" || ee.Iteration != 2 {
			t.Fatalf("calls %v: err = %v, want mid's peek at firing 2", calls, err)
		}
	}
}

// TestSequentialBlockFaults: a block faults as one iteration at a time
// would. RunSteady(8) and eight RunSteady(1) calls give the same
// *ExecError (filter, op and firing), bit-equal items at the sink's tap and
// the same count of completed iterations, for a panic planned in the sixth
// iteration of every filter of a pipeline and of a split-join, for two
// faults where the later schedule entry faults at an earlier iteration, for
// a native kernel that panics, and for an overreading filter that fires
// the iteration before another's fault.
func TestSequentialBlockFaults(t *testing.T) {
	// nativeGain doubles its input and panics at firing at (never when
	// negative); each call builds a fresh counter.
	nativeGain := func(at int) *ir.Filter {
		fired := 0
		return &ir.Filter{Kernel: wfunc.NewKernel("N", 1, 1, 1).WorkBody(wfunc.Push1(wfunc.PopE())).Build(),
			In: ir.TypeFloat, Out: ir.TypeFloat,
			WorkFn: func(in, out wfunc.Tape, _ *wfunc.State) {
				if fired == at {
					panic("native kernel bug")
				}
				fired++
				out.Push(2 * in.Pop())
			}}
	}
	pipeline := func(native int) *ir.Program {
		return &ir.Program{Name: "p", Top: ir.Pipe("P", blockSource(), gainFilter("G", 3),
			firFilter("F", []float64{0.5, 0.25, 0.125}), nativeGain(native), accFilter("A"), nullSink("K", 1))}
	}
	splitJoin := func(int) *ir.Program {
		return &ir.Program{Name: "s", Top: ir.Pipe("P", blockSource(),
			ir.SJ("SJ", ir.RoundRobin(1, 1), ir.RoundRobin(2, 2),
				ir.Pipe("L", gainFilter("G", 3), firFilter("F", []float64{0.5, 0.25})),
				ir.Pipe("R", accFilter("A"), gainFilter("H", 0.5))),
			nullSink("K", 4))}
	}
	// run builds prog and runs init plus calls, stopping at the first
	// error; it returns the error, the sink's tapped items and the
	// iterations every node completed.
	run := func(t *testing.T, prog *ir.Program, plan string, calls []int) (error, []float64, int64) {
		t.Helper()
		g, s := flattenScheduled(t, prog)
		opts := Options{}
		if plan != "" {
			opts.Faults = mustPlan(t, plan)
		}
		e, err := NewFromGraphOpts(g, s, opts)
		if err != nil {
			t.Fatal(err)
		}
		var got []float64
		for _, n := range g.Nodes {
			if n.Kind == ir.NodeFilter && n.IsSink() {
				if err := e.TapSink(n.Name, func(v float64) { got = append(got, v) }); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := e.RunInit(); err != nil {
			t.Fatal(err)
		}
		for _, k := range calls {
			if err = e.RunSteady(k); err != nil {
				break
			}
		}
		return err, got, e.Iterations()
	}
	// check runs both ways and wants the fault of iteration `fault`.
	check := func(t *testing.T, build func(int) *ir.Program, native int, plan string, fault int64) {
		t.Helper()
		bErr, bGot, bDone := run(t, build(native), plan, []int{8})
		sErr, sGot, sDone := run(t, build(native), plan, []int{1, 1, 1, 1, 1, 1, 1, 1})
		var be, se *ExecError
		if !errors.As(bErr, &be) || !errors.As(sErr, &se) {
			t.Fatalf("errors %v and %v, want an *ExecError from both", bErr, sErr)
		}
		if be.Filter != se.Filter || be.Op != se.Op || be.Iteration != se.Iteration || bErr.Error() != sErr.Error() {
			t.Fatalf("block: %v\none at a time: %v", bErr, sErr)
		}
		if bDone != sDone || bDone != fault-1 {
			t.Fatalf("completed %d iterations in a block, %d one at a time, want %d", bDone, sDone, fault-1)
		}
		if len(bGot) != len(sGot) {
			t.Fatalf("sink tapped %d items in a block, %d one at a time", len(bGot), len(sGot))
		}
		for i := range bGot {
			if math.Float64bits(bGot[i]) != math.Float64bits(sGot[i]) {
				t.Fatalf("sink item %d: %v in a block, %v one at a time", i, bGot[i], sGot[i])
			}
		}
	}
	for _, c := range []struct {
		name  string
		build func(int) *ir.Program
	}{{"pipeline", pipeline}, {"splitjoin", splitJoin}} {
		g, s := flattenScheduled(t, c.build(-1))
		for _, n := range g.Nodes {
			if n.Kind != ir.NodeFilter || n.Filter.WorkFn != nil {
				continue
			}
			at := s.InitReps[n.ID] + 5*s.Reps[n.ID] + s.Reps[n.ID]/2 // in steady iteration 6
			t.Run(c.name+"/"+n.Name, func(t *testing.T) {
				check(t, c.build, -1, fmt.Sprintf("panic:%s@%d", n.Name, at), 6)
			})
		}
	}
	t.Run("later entry faults earlier", func(t *testing.T) {
		check(t, pipeline, -1, "panic:G@20,panic:A@9", 3) // A faults in iteration 3, G later
	})
	t.Run("native kernel panic", func(t *testing.T) {
		check(t, pipeline, 21, "", 6)
	})
	t.Run("catch-up is held", func(t *testing.T) {
		// G faults in steady iteration 2 after the splitter has fired all
		// eight, so mid fires one iteration after it, held to what that
		// iteration buffered: its read past its peek fails in iteration 1
		// there too, and that fault wins.
		overread := func(int) *ir.Program {
			return &ir.Program{Name: "o", Top: ir.Pipe("P", blockSource(),
				ir.SJ("SJ", ir.Duplicate(), ir.RoundRobin(1, 1), gainFilter("G", 2), overreadFIR()),
				nullSink("K", 1))}
		}
		g, s := flattenScheduled(t, overread(-1))
		for _, n := range g.Nodes {
			if strings.HasPrefix(n.Name, "G#") {
				check(t, overread, -1, fmt.Sprintf("panic:G@%d", s.InitReps[n.ID]+s.Reps[n.ID]), 1)
			}
		}
	})
}
