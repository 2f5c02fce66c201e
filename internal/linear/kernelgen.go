package linear

import (
	"slices"

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
