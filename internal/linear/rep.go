// Package linear implements the paper's linear analysis and optimization:
// detecting filters whose outputs are affine combinations of their inputs
// (FIR filters, expanders, compressors, DCTs...) and collapsing
// neighboring linear nodes into a single linear representation
// (eliminating redundant computation). The paper's third step, translating
// convolutions into the frequency domain, is left out: written as IL, an
// overlap-save FFT ran slower than the direct kernel on the VM at every
// block size measured (EXPERIMENTS.md, A3).
//
// Replacement filters are generated back into the wfunc IL, so optimized
// and unoptimized programs execute through the same interpreter and
// measured speedups reflect the optimization, not a change of runtime.
package linear

import "fmt"

// Rep is the linear representation of a filter: on each firing it peeks
// Peek items, pops Pop, and pushes Push items where
//
//	out[j] = sum_i A[j][i] * peek(i) + B[j]
//
// Row j = 0 is the first item pushed.
type Rep struct {
	Peek, Pop, Push int
	A               [][]float64
	B               []float64
}

// NewRep allocates a zero representation with the given rates.
func NewRep(peek, pop, push int) *Rep {
	r := &Rep{Peek: peek, Pop: pop, Push: push, B: make([]float64, push)}
	r.A = make([][]float64, push)
	for j := range r.A {
		r.A[j] = make([]float64, peek)
	}
	return r
}

// NonZeros counts nonzero matrix coefficients (the multiply count of a
// direct implementation).
func (r *Rep) NonZeros() int {
	n := 0
	for _, row := range r.A {
		for _, v := range row {
			if v != 0 {
				n++
			}
		}
	}
	return n
}

// Apply computes the outputs for a concrete peek window (for verification).
func (r *Rep) Apply(window []float64) ([]float64, error) {
	if len(window) < r.Peek {
		return nil, fmt.Errorf("linear: window %d smaller than peek %d", len(window), r.Peek)
	}
	out := make([]float64, r.Push)
	for j := range out {
		acc := r.B[j]
		row := r.A[j]
		for i, c := range row {
			if c != 0 {
				acc += c * window[i]
			}
		}
		out[j] = acc
	}
	return out, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }

// CombinePipeline collapses two pipelined linear filters F then G into a
// single linear representation. The combined filter re-derives any
// intermediate history G peeks (beyond what F produces per firing) from its
// own wider input peek window, so the result is stateless.
func CombinePipeline(f, g *Rep) (*Rep, error) {
	if f.Push == 0 || g.Pop == 0 {
		return nil, fmt.Errorf("linear: cannot combine across a zero-rate channel")
	}
	u := lcm(f.Push, g.Pop)
	mF0 := u / f.Push // F firings whose output G consumes per combined firing
	mG := u / g.Pop
	e2 := g.Peek - g.Pop

	// Intermediates needed: [0, u+e2). F firing k produces intermediates
	// [k*push, (k+1)*push) from inputs [k*pop, k*pop+peek).
	nInter := u + e2
	mF := (nInter + f.Push - 1) / f.Push // firings to cover the window
	peek := (mF-1)*f.Pop + f.Peek
	pop := mF0 * f.Pop
	push := mG * g.Push
	if peek < pop {
		peek = pop
	}

	// M maps the combined input window to the intermediate window.
	M := make([][]float64, nInter)
	bM := make([]float64, nInter)
	for m := 0; m < nInter; m++ {
		M[m] = make([]float64, peek)
		k := m / f.Push
		row := m % f.Push
		for i, c := range f.A[row] {
			M[m][k*f.Pop+i] += c
		}
		bM[m] = f.B[row]
	}

	out := NewRep(peek, pop, push)
	for gf := 0; gf < mG; gf++ {
		for r2 := 0; r2 < g.Push; r2++ {
			j := gf*g.Push + r2
			acc := g.B[r2]
			dst := out.A[j]
			for i, c := range g.A[r2] {
				if c == 0 {
					continue
				}
				inter := gf*g.Pop + i
				acc += c * bM[inter]
				for col, mc := range M[inter] {
					if mc != 0 {
						dst[col] += c * mc
					}
				}
			}
			out.B[j] = acc
		}
	}
	return out, nil
}
