package linear

import (
	"fmt"
	"math"
	"slices"

	"streamit/internal/fft"
	"streamit/internal/wfunc"
)

// ToKernel generates an IL kernel that executes the linear representation
// directly, as the dot-product nest the VM runs four rows at a time. The
// coefficients are one field array, row-major, and row j is
//
//	sum = B[j]; for i < Peek { sum = sum + peek(i) * coef[i + Peek·j] }; push(sum)
//
// then the firing pops Pop items. One row (Push = 1) is a row kernel,
// whose firings RunHeld runs as the rows; more sit in a loop over j, which
// the VM runs as a rows span. Rows whose constants differ start from a
// bias field array instead, which only the generic loop runs. Every
// coefficient is multiplied, zeros included, so a non-finite input meets
// a zero and gives NaN where Rep.Apply skips the term.
func ToKernel(name string, r *Rep) *wfunc.Kernel {
	b := wfunc.NewKernel(name, r.Peek, r.Pop, r.Push)
	var coef []float64
	for _, row := range r.A {
		coef = append(coef, row...)
	}
	// A zero-width window reads no coefficient, but an array needs a cell.
	cf := b.FieldArray("coef", max(len(coef), 1), coef...)
	i, j, sum := b.Local("i"), b.Local("j"), b.Local("sum")
	row := func(init, off wfunc.Expr) []wfunc.Stmt {
		return []wfunc.Stmt{
			wfunc.Set(sum, init),
			wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(r.Peek),
				wfunc.Set(sum, wfunc.AddX(sum, wfunc.MulX(wfunc.PeekX(i), wfunc.FIdx(cf, wfunc.AddX(i, off)))))),
			wfunc.Push1(sum),
		}
	}
	init := wfunc.Expr(wfunc.C(r.B[0]))
	if slices.ContainsFunc(r.B, func(c float64) bool { return c != r.B[0] }) {
		init = wfunc.FIdx(b.FieldArray("bias", r.Push, r.B...), j)
	}
	body := row(init, wfunc.Ci(0))
	if r.Push > 1 {
		body = []wfunc.Stmt{wfunc.ForUp(j, wfunc.Ci(0), wfunc.Ci(r.Push), row(init, wfunc.MulX(j, wfunc.Ci(r.Peek)))...)}
	}
	body = append(body, wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(r.Pop), wfunc.Pop1()))
	b.WorkBody(body...)
	return b.Build()
}

// FreqKernel generates an IL kernel that executes a Toeplitz (sliding
// convolution) representation in the frequency domain via overlap-save:
// per firing it peeks block+taps-1 items, pops and pushes block items,
// computing an FFT of size N = nextpow2(block+taps-1), a pointwise multiply
// with the (precomputed, conjugated) tap spectrum, and an inverse FFT.
//
// The whole computation is IL — the same interpreter executes both the
// original and the optimized program, so measured speedups are algorithmic.
func FreqKernel(name string, taps []float64, block int) (*wfunc.Kernel, error) {
	if len(taps) == 0 || block <= 0 {
		return nil, fmt.Errorf("linear: FreqKernel requires taps and a positive block")
	}
	window := block + len(taps) - 1
	n := fft.NextPow2(window)

	// Precompute the conjugated tap spectrum, bit-reversal table, and
	// twiddle tables; they are baked into field initializers.
	hF := make([]complex128, n)
	for i, v := range taps {
		hF[i] = complex(v, 0)
	}
	if err := fft.Forward(hF); err != nil {
		return nil, err
	}
	hRe := make([]float64, n)
	hIm := make([]float64, n)
	for i, v := range hF {
		hRe[i] = real(v)
		hIm[i] = -imag(v) // store conj(H)
	}
	brev := make([]float64, n)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		brev[i] = float64(j)
	}
	cosT := make([]float64, n)
	sinT := make([]float64, n)
	for k := 0; k < n; k++ {
		cosT[k] = math.Cos(2 * math.Pi * float64(k) / float64(n))
		sinT[k] = math.Sin(2 * math.Pi * float64(k) / float64(n))
	}

	b := wfunc.NewKernel(name, window, block, block)
	fHRe := b.FieldArray("hRe", n, hRe...)
	fHIm := b.FieldArray("hIm", n, hIm...)
	fBrev := b.FieldArray("brev", n, brev...)
	fCos := b.FieldArray("cosT", n, cosT...)
	fSin := b.FieldArray("sinT", n, sinT...)
	re := b.LocalArray("re", n)
	im := b.LocalArray("im", n)

	i := b.Local("i")
	jj := b.Local("jj")
	size := b.Local("size")
	half := b.Local("half")
	step := b.Local("step")
	start := b.Local("start")
	k := b.Local("k")
	tw := b.Local("tw")
	wr := b.Local("wr")
	wi := b.Local("wi")
	vr := b.Local("vr")
	vi := b.Local("vi")
	tr := b.Local("tr")
	ai := b.Local("ai")
	bi := b.Local("bi")

	// genFFT emits an in-place FFT over re/im with twiddle sign dir
	// (-1 forward, +1 inverse).
	genFFT := func(dir float64) []wfunc.Stmt {
		return []wfunc.Stmt{
			// Bit-reversal permutation.
			wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(n),
				wfunc.Set(jj, wfunc.FIdx(fBrev, i)),
				wfunc.IfS(wfunc.Bin(wfunc.Lt, i, jj),
					wfunc.Set(tr, wfunc.LIdx(re, i)),
					wfunc.SetLIdx(re, i, wfunc.LIdx(re, jj)),
					wfunc.SetLIdx(re, jj, tr),
					wfunc.Set(tr, wfunc.LIdx(im, i)),
					wfunc.SetLIdx(im, i, wfunc.LIdx(im, jj)),
					wfunc.SetLIdx(im, jj, tr),
				),
			),
			// Butterfly stages.
			wfunc.Set(size, wfunc.Ci(2)),
			&wfunc.While{C: wfunc.Bin(wfunc.Le, size, wfunc.Ci(n)), Body: []wfunc.Stmt{
				wfunc.Set(half, wfunc.DivX(size, wfunc.C(2))),
				wfunc.Set(step, wfunc.DivX(wfunc.Ci(n), size)),
				wfunc.Set(start, wfunc.Ci(0)),
				&wfunc.While{C: wfunc.Bin(wfunc.Lt, start, wfunc.Ci(n)), Body: []wfunc.Stmt{
					wfunc.ForUp(k, wfunc.Ci(0), half,
						wfunc.Set(tw, wfunc.MulX(k, step)),
						wfunc.Set(wr, wfunc.FIdx(fCos, tw)),
						wfunc.Set(wi, wfunc.MulX(wfunc.C(dir), wfunc.FIdx(fSin, tw))),
						wfunc.Set(ai, wfunc.AddX(start, k)),
						wfunc.Set(bi, wfunc.AddX(ai, half)),
						wfunc.Set(vr, wfunc.SubX(wfunc.MulX(wfunc.LIdx(re, bi), wr), wfunc.MulX(wfunc.LIdx(im, bi), wi))),
						wfunc.Set(vi, wfunc.AddX(wfunc.MulX(wfunc.LIdx(re, bi), wi), wfunc.MulX(wfunc.LIdx(im, bi), wr))),
						wfunc.SetLIdx(re, bi, wfunc.SubX(wfunc.LIdx(re, ai), vr)),
						wfunc.SetLIdx(im, bi, wfunc.SubX(wfunc.LIdx(im, ai), vi)),
						wfunc.SetLIdx(re, ai, wfunc.AddX(wfunc.LIdx(re, ai), vr)),
						wfunc.SetLIdx(im, ai, wfunc.AddX(wfunc.LIdx(im, ai), vi)),
					),
					wfunc.Set(start, wfunc.AddX(start, size)),
				}},
				wfunc.Set(size, wfunc.MulX(size, wfunc.C(2))),
			}},
		}
	}

	var body []wfunc.Stmt
	// Load the input window (local arrays are zeroed each firing).
	body = append(body,
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(window),
			wfunc.SetLIdx(re, i, wfunc.PeekX(i))),
	)
	body = append(body, genFFT(-1)...)
	// Pointwise multiply by conj(H) (already conjugated in the tables).
	body = append(body,
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(n),
			wfunc.Set(tr, wfunc.SubX(
				wfunc.MulX(wfunc.LIdx(re, i), wfunc.FIdx(fHRe, i)),
				wfunc.MulX(wfunc.LIdx(im, i), wfunc.FIdx(fHIm, i)))),
			wfunc.SetLIdx(im, i, wfunc.AddX(
				wfunc.MulX(wfunc.LIdx(re, i), wfunc.FIdx(fHIm, i)),
				wfunc.MulX(wfunc.LIdx(im, i), wfunc.FIdx(fHRe, i)))),
			wfunc.SetLIdx(re, i, tr),
		),
	)
	body = append(body, genFFT(1)...)
	// Emit block outputs scaled by 1/N, then consume block inputs.
	body = append(body,
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(block),
			wfunc.Push1(wfunc.MulX(wfunc.LIdx(re, i), wfunc.C(1/float64(n))))),
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(block), wfunc.Pop1()),
	)
	b.WorkBody(body...)
	return b.Build(), nil
}

// FreqCostPerOutput estimates interpreter cycles per output item for a
// frequency-domain kernel with the given taps and block size. Work
// estimation cannot see through the FFT's data-dependent while loops, so
// the optimizer uses this closed form: two FFTs of size N (~5N log2 N
// butterfly operations, each a handful of IL steps) plus the pointwise
// multiply and data movement, divided by block outputs.
func FreqCostPerOutput(taps, block int) float64 {
	n := fft.NextPow2(block + taps - 1)
	logN := math.Log2(float64(n))
	butterflies := float64(n) / 2 * logN
	// Calibrated against the tree-walking interpreter: one butterfly costs
	// about eight direct FIR taps (measured ~400ns vs ~55ns per tap), i.e.
	// ~110 abstract cycles against the ~14 of a looped tap. Two FFTs plus the
	// bit-reverse, pointwise-multiply, load and scale stages.
	total := 2*butterflies*110 + float64(n)*80
	return total / float64(block)
}

// DirectCostPerOutput estimates interpreter cycles per output for the
// matrix kernel of r: ~7 abstract cycles per nonzero coefficient plus
// per-row overhead, on the same calibration scale as FreqCostPerOutput.
// The constants were fitted to straight-line code with literal
// coefficients on the tree-walking interpreter; ToKernel's nest, which
// multiplies zeros too and runs on the VM, keeps them until the model is
// re-fitted.
func DirectCostPerOutput(r *Rep) float64 {
	return 7*float64(r.NonZeros())/float64(r.Push) + 6
}
