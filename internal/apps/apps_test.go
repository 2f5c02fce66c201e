package apps

import (
	"testing"

	"streamit/internal/exec"
	"streamit/internal/ir"
	"streamit/internal/linear"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
)

// TestSuiteBuildsAndSchedules flattens, verifies, and schedules every
// benchmark.
func TestSuiteBuildsAndSchedules(t *testing.T) {
	for _, app := range Suite() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			prog := app.Build()
			g, err := ir.Flatten(prog)
			if err != nil {
				t.Fatalf("flatten: %v", err)
			}
			s, err := sched.Compute(g)
			if err != nil {
				t.Fatalf("schedule: %v", err)
			}
			if s.TotalFirings() == 0 {
				t.Fatal("empty steady state")
			}
			st, err := g.ComputeStats()
			if err != nil {
				t.Fatal(err)
			}
			if st.Filters < 5 {
				t.Errorf("only %d filters; benchmark seems degenerate", st.Filters)
			}
		})
	}
}

// TestSuiteExecutes runs two steady iterations of every benchmark through
// the interpreter.
func TestSuiteExecutes(t *testing.T) {
	for _, app := range Suite() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			e, err := exec.New(app.Build())
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Run(2); err != nil {
				t.Fatal(err)
			}
			if e.Firings == 0 {
				t.Error("no firings recorded")
			}
		})
	}
}

// TestSuiteCharacteristics pins the qualitative benchmark-table properties
// the evaluation depends on.
func TestSuiteCharacteristics(t *testing.T) {
	wantStateful := map[string]bool{
		"MPEG2Decoder": true, "Vocoder": true, "Radar": true,
	}
	wantPeeking := map[string]bool{
		"ChannelVocoder": true, "FilterBank": true, "FMRadio": true, "Vocoder": true,
	}
	for _, app := range Suite() {
		prog := app.Build()
		g, err := ir.Flatten(prog)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		st, err := g.ComputeStats()
		if err != nil {
			t.Fatal(err)
		}
		if wantStateful[app.Name] && st.Stateful == 0 {
			t.Errorf("%s should contain stateful filters", app.Name)
		}
		if !wantStateful[app.Name] && st.Stateful > 0 {
			t.Errorf("%s should be stateless, found %d stateful filters", app.Name, st.Stateful)
		}
		if wantPeeking[app.Name] && st.Peeking == 0 {
			t.Errorf("%s should contain peeking filters", app.Name)
		}
	}
}

// TestLinearSuiteIsLinear checks the linear apps actually expose linear
// filters to the optimizer.
func TestLinearSuiteIsLinear(t *testing.T) {
	for _, app := range LinearSuite() {
		prog := app.Build()
		m := linear.Analyze(prog.Top)
		if len(m) < 1 {
			t.Errorf("%s: no linear filters detected", app.Name)
		}
	}
}

// TestLinearSuiteExecutes runs each linear benchmark unoptimized and
// optimized and compares outputs.
func TestLinearSuiteOptimizedEquivalence(t *testing.T) {
	for _, app := range LinearSuite() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			// The suite builders create fresh filters per call, so build
			// twice: once plain, once optimized.
			plain := app.Build()
			e1, err := exec.New(plain)
			if err != nil {
				t.Fatal(err)
			}
			if err := e1.Run(3); err != nil {
				t.Fatal(err)
			}
			optProg := app.Build()
			top, err := linear.Optimize(optProg.Top, linear.Options{Combine: true}, nil)
			if err != nil {
				t.Fatal(err)
			}
			optProg.Top = top
			e2, err := exec.New(optProg)
			if err != nil {
				t.Fatal(err)
			}
			if err := e2.Run(3); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFreqHopVariantsExecute runs both the teleport and manual frequency-
// hopping radios.
func TestFreqHopVariantsExecute(t *testing.T) {
	for _, teleport := range []bool{true, false} {
		prog := FreqHoppingRadio(teleport)
		e, err := exec.New(prog)
		if err != nil {
			t.Fatalf("teleport=%v: %v", teleport, err)
		}
		if err := e.Run(2000); err != nil {
			t.Fatalf("teleport=%v: %v", teleport, err)
		}
	}
}

// TestBitonicSortActuallySorts captures the sorter's output and verifies
// every 16-key block emerges in ascending order.
func TestBitonicSortActuallySorts(t *testing.T) {
	prog := BitonicSort(16)
	pipe := prog.Top.(*ir.Pipeline)
	snk, got := exec.SliceSink("capture")
	pipe.Children[len(pipe.Children)-1] = snk
	out, err := exec.RunCollect(prog, 16*8, got)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) < 64 {
		t.Fatalf("only %d outputs", len(out))
	}
	blocks := len(out) / 16
	for b := 0; b < blocks; b++ {
		blk := out[b*16 : (b+1)*16]
		for i := 1; i < 16; i++ {
			if blk[i] < blk[i-1] {
				t.Fatalf("block %d not sorted: %v", b, blk)
			}
		}
	}
}

// TestMPEGDominantFilter pins the DCT-style claim: MPEG2Decoder's iDCT
// does more than 2x the work of the next-largest filter.
func TestMPEGDominantFilter(t *testing.T) {
	g, err := ir.Flatten(MPEG2Decoder())
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	var works []int64
	for _, n := range g.Nodes {
		if n.Kind != ir.NodeFilter || n.IsSource() || n.IsSink() {
			continue
		}
		c := wfuncEstimate(n)
		works = append(works, c*int64(s.Reps[n.ID]))
	}
	sortInt64(works)
	if len(works) < 2 || works[len(works)-1] < 2*works[len(works)-2] {
		t.Errorf("dominant filter should do >2x the next largest: %v", works)
	}
}

func wfuncEstimate(n *ir.Node) int64 {
	return wfunc.EstimateKernel(n.Filter.Kernel).Cycles
}

func sortInt64(v []int64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
