// Package apps contains the benchmark applications of the paper's
// evaluation, re-implemented in the builder DSL from their published
// StreamIt structure: the 12-program parallelization suite (BitonicSort,
// ChannelVocoder, DCT, DES, FFT, FilterBank, FMRadio, Serpent, TDE,
// MPEG2Decoder, Vocoder, Radar), the linear-optimization suite (FIR,
// RateConvert, TargetDetect, Oversampler, DToA, plus the radio apps), and
// the frequency-hopping radio used by the teleport-messaging experiment.
package apps

import (
	"fmt"
	"math"

	"streamit/internal/ir"
	"streamit/internal/wfunc"
)

// Source returns an IL source pushing a deterministic synthetic waveform
// (sum of two sinusoids), one item per firing — the stand-in for the
// paper's file readers and A/D converters.
func Source(name string) *ir.Filter {
	b := wfunc.NewKernel(name, 0, 0, 1)
	n := b.Field("n", 0)
	b.WorkBody(
		wfunc.Push1(wfunc.AddX(
			wfunc.Un(wfunc.Sin, wfunc.MulX(n, wfunc.C(0.3))),
			wfunc.MulX(wfunc.Un(wfunc.Cos, wfunc.MulX(n, wfunc.C(0.07))), wfunc.C(0.5)))),
		wfunc.SetF(n, wfunc.AddX(n, wfunc.C(1))),
	)
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeVoid, Out: ir.TypeFloat}
}

// Sink returns an IL sink consuming pop items per firing.
func Sink(name string, pop int) *ir.Filter {
	b := wfunc.NewKernel(name, pop, pop, 0)
	i := b.Local("i")
	b.WorkBody(wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(pop), wfunc.Pop1()))
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeVoid}
}

// FIR returns an n-tap sliding FIR filter (peek n, pop 1, push 1) with
// deterministic windowed-sinc-flavoured coefficients parameterized by
// (cutoff, phase) so distinct instances differ.
func FIR(name string, taps int, cutoff float64) *ir.Filter {
	b := wfunc.NewKernel(name, taps, 1, 1)
	w := b.FieldArray("w", taps)
	i := b.Local("i")
	sum := b.Local("sum")
	b.InitBody(
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(taps),
			wfunc.SetFIdx(w, i, wfunc.MulX(
				wfunc.Un(wfunc.Sin, wfunc.MulX(wfunc.AddX(i, wfunc.C(1)), wfunc.C(cutoff))),
				wfunc.C(1.0/float64(taps))))),
	)
	b.WorkBody(
		wfunc.Set(sum, wfunc.C(0)),
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(taps),
			wfunc.Set(sum, wfunc.AddX(sum, wfunc.MulX(wfunc.PeekX(i), wfunc.FIdx(w, i))))),
		wfunc.Pop1(),
		wfunc.Push1(sum),
	)
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
}

// FIRDecim returns a decimating FIR: peek taps, pop decim, push 1.
func FIRDecim(name string, taps, decim int, cutoff float64) *ir.Filter {
	b := wfunc.NewKernel(name, maxInt(taps, decim), decim, 1)
	w := b.FieldArray("w", taps)
	i := b.Local("i")
	sum := b.Local("sum")
	b.InitBody(
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(taps),
			wfunc.SetFIdx(w, i, wfunc.Un(wfunc.Cos, wfunc.MulX(i, wfunc.C(cutoff))))),
	)
	b.WorkBody(
		wfunc.Set(sum, wfunc.C(0)),
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(taps),
			wfunc.Set(sum, wfunc.AddX(sum, wfunc.MulX(wfunc.PeekX(i), wfunc.FIdx(w, i))))),
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(decim), wfunc.Pop1()),
		wfunc.Push1(sum),
	)
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
}

// Upsample inserts factor-1 zeros after every sample (pop 1, push factor).
func Upsample(name string, factor int) *ir.Filter {
	b := wfunc.NewKernel(name, 1, 1, factor)
	x := b.Local("x")
	body := []wfunc.Stmt{wfunc.Set(x, wfunc.PopE()), wfunc.Push1(x)}
	for i := 1; i < factor; i++ {
		body = append(body, wfunc.Push1(wfunc.C(0)))
	}
	b.WorkBody(body...)
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
}

// Downsample keeps one of every factor samples.
func Downsample(name string, factor int) *ir.Filter {
	b := wfunc.NewKernel(name, factor, factor, 1)
	i := b.Local("i")
	b.WorkBody(
		wfunc.Push1(wfunc.PeekE(0)),
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(factor), wfunc.Pop1()),
	)
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
}

// Adder sums n consecutive items into one (the equalizer's combiner).
func Adder(name string, n int) *ir.Filter {
	b := wfunc.NewKernel(name, n, n, 1)
	i := b.Local("i")
	sum := b.Local("sum")
	b.WorkBody(
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(n),
			wfunc.Set(sum, wfunc.AddX(sum, wfunc.PeekX(i)))),
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(n), wfunc.Pop1()),
		wfunc.Push1(sum),
	)
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
}

// Gain multiplies by a constant.
func Gain(name string, g float64) *ir.Filter {
	b := wfunc.NewKernel(name, 1, 1, 1)
	b.WorkBody(wfunc.Push1(wfunc.MulX(wfunc.PopE(), wfunc.C(g))))
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
}

// MatMul applies a dense rows x cols constant matrix per firing (pop cols,
// push rows) — the shape of DCT stages and beamformer weights.
func MatMul(name string, rows, cols int, seed float64) *ir.Filter {
	b := wfunc.NewKernel(name, cols, cols, rows)
	m := b.FieldArray("m", rows*cols)
	i := b.Local("i")
	j := b.Local("j")
	sum := b.Local("sum")
	b.InitBody(
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(rows*cols),
			wfunc.SetFIdx(m, i, wfunc.Un(wfunc.Cos, wfunc.MulX(i, wfunc.C(seed))))),
	)
	b.WorkBody(
		wfunc.ForUp(j, wfunc.Ci(0), wfunc.Ci(rows),
			wfunc.Set(sum, wfunc.C(0)),
			wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(cols),
				wfunc.Set(sum, wfunc.AddX(sum, wfunc.MulX(wfunc.PeekX(i),
					wfunc.FIdx(m, wfunc.AddX(wfunc.MulX(j, wfunc.Ci(cols)), i)))))),
			wfunc.Push1(sum),
		),
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(cols), wfunc.Pop1()),
	)
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
}

// KeyXor xors each item with a round-constant stream derived from idx.
func KeyXor(name string, width int, round int) *ir.Filter {
	b := wfunc.NewKernel(name, width, width, width)
	k := b.FieldArray("k", width)
	i := b.Local("i")
	b.InitBody(
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(width),
			wfunc.SetFIdx(k, i, wfunc.Bin(wfunc.Mod,
				wfunc.AddX(wfunc.MulX(i, wfunc.Ci(round+3)), wfunc.Ci(round)), wfunc.C(2)))),
	)
	b.WorkBody(
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(width),
			wfunc.Push1(wfunc.Bin(wfunc.BitXor, wfunc.PeekX(i), wfunc.FIdx(k, i)))),
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(width), wfunc.Pop1()),
	)
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
}

// Sbox substitutes width-bit groups through a nonlinear table lookup.
func Sbox(name string, width int) *ir.Filter {
	b := wfunc.NewKernel(name, width, width, width)
	tbl := b.FieldArray("t", 16)
	i := b.Local("i")
	v := b.Local("v")
	b.InitBody(
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(16),
			wfunc.SetFIdx(tbl, i, wfunc.Bin(wfunc.Mod, wfunc.MulX(wfunc.AddX(i, wfunc.C(5)), wfunc.C(7)), wfunc.C(16)))),
	)
	// Consume groups of 4 bits, emit substituted bits.
	b.WorkBody(
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(width/4),
			// v = bits -> nibble
			wfunc.Set(v, wfunc.AddX(
				wfunc.MulX(wfunc.PeekX(wfunc.MulX(i, wfunc.C(4))), wfunc.C(8)),
				wfunc.AddX(
					wfunc.MulX(wfunc.PeekX(wfunc.AddX(wfunc.MulX(i, wfunc.C(4)), wfunc.C(1))), wfunc.C(4)),
					wfunc.AddX(
						wfunc.MulX(wfunc.PeekX(wfunc.AddX(wfunc.MulX(i, wfunc.C(4)), wfunc.C(2))), wfunc.C(2)),
						wfunc.PeekX(wfunc.AddX(wfunc.MulX(i, wfunc.C(4)), wfunc.C(3))))))),
			wfunc.Set(v, wfunc.FIdx(tbl, v)),
			wfunc.Push1(wfunc.Bin(wfunc.Mod, wfunc.DivX(v, wfunc.C(8)), wfunc.C(2))),
			wfunc.Push1(wfunc.Bin(wfunc.Mod, wfunc.DivX(v, wfunc.C(4)), wfunc.C(2))),
			wfunc.Push1(wfunc.Bin(wfunc.Mod, wfunc.DivX(v, wfunc.C(2)), wfunc.C(2))),
			wfunc.Push1(wfunc.Bin(wfunc.Mod, v, wfunc.C(2))),
		),
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(width), wfunc.Pop1()),
	)
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
}

// Permute applies a fixed permutation to width-item blocks.
func Permute(name string, width int, stride int) *ir.Filter {
	b := wfunc.NewKernel(name, width, width, width)
	i := b.Local("i")
	b.WorkBody(
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(width),
			wfunc.Push1(wfunc.PeekX(wfunc.Bin(wfunc.Mod, wfunc.MulX(i, wfunc.Ci(stride)), wfunc.Ci(width))))),
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(width), wfunc.Pop1()),
	)
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
}

// StatefulFIR is a history-buffer FIR that keeps its window in fields (the
// Radar input stage's idiom): functionally similar to FIR but explicitly
// stateful, so the compiler cannot fiss it.
func StatefulFIR(name string, taps int, decim int) *ir.Filter {
	b := wfunc.NewKernel(name, decim, decim, 1)
	hist := b.FieldArray("h", taps)
	w := b.FieldArray("w", taps)
	i := b.Local("i")
	sum := b.Local("sum")
	b.InitBody(
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(taps),
			wfunc.SetFIdx(w, i, wfunc.Un(wfunc.Sin, wfunc.MulX(i, wfunc.C(0.17))))),
	)
	var body []wfunc.Stmt
	for d := 0; d < decim; d++ {
		// Shift history and insert the new sample.
		body = append(body,
			wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(taps-1),
				wfunc.SetFIdx(hist, i, wfunc.FIdx(hist, wfunc.AddX(i, wfunc.C(1))))),
			wfunc.SetFIdx(hist, wfunc.Ci(taps-1), wfunc.PopE()),
		)
	}
	body = append(body,
		wfunc.Set(sum, wfunc.C(0)),
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(taps),
			wfunc.Set(sum, wfunc.AddX(sum, wfunc.MulX(wfunc.FIdx(hist, i), wfunc.FIdx(w, i))))),
		wfunc.Push1(sum),
	)
	b.WorkBody(body...)
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
}

// PhaseUnwrap tracks phase continuity across firings (the Vocoder's
// stateful core).
func PhaseUnwrap(name string, extra int) *ir.Filter {
	b := wfunc.NewKernel(name, 1, 1, 1)
	prev := b.Field("prev", 0)
	acc := b.Field("acc", 0)
	x := b.Local("x")
	d := b.Local("d")
	i := b.Local("i")
	body := []wfunc.Stmt{
		wfunc.Set(x, wfunc.PopE()),
		wfunc.Set(d, wfunc.SubX(x, prev)),
		wfunc.IfS(wfunc.Bin(wfunc.Gt, d, wfunc.C(math.Pi)),
			wfunc.Set(d, wfunc.SubX(d, wfunc.C(2*math.Pi)))),
		wfunc.IfS(wfunc.Bin(wfunc.Lt, d, wfunc.C(-math.Pi)),
			wfunc.Set(d, wfunc.AddX(d, wfunc.C(2*math.Pi)))),
	}
	if extra > 0 {
		body = append(body,
			wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(extra),
				wfunc.Set(d, wfunc.AddX(d, wfunc.MulX(wfunc.Un(wfunc.Sin, d), wfunc.C(1e-9))))))
	}
	body = append(body,
		wfunc.SetF(acc, wfunc.AddX(acc, d)),
		wfunc.SetF(prev, x),
		wfunc.Push1(acc),
	)
	b.WorkBody(body...)
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func mustName(prefix string, i int) string { return fmt.Sprintf("%s%d", prefix, i) }
