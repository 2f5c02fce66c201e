package exec

import (
	"bytes"
	"errors"
	"fmt"
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
