package vm

import (
	"math"
	"reflect"
	"slices"

	"streamit/internal/wfunc"
)

// Row kernels. Every FIR and adder of the suite fires as one dot product
// over its peek window, a row of a matrix–vector product: pops (pop()
// statements or counted drain loops) around one loop
// for v = 0; v < N; v += 1 whose reduce span is acc = acc + x[v+p] or
// acc = acc + x[v+p] * F[v+q] — x a peek or a pop, F a field array, p and
// q integer constants — at most one acc = c before it (acc starts at 0
// without it) and one push after it, of acc or of the cell one la[k] = acc
// stored it to (k constant), alone, times a constant in either order or
// divided by one: fuse.Chain's FIR-then-gain. As one chain of dependent
// adds a firing is latency-bound; RunHeld runs a held block's firings four
// at a time, one accumulator each, its additions in IL order, so four
// chains overlap and every output is the generic code's bit for bit. The
// cell needs no copy: RunN clears local arrays at every firing.

// rowKernel is a row kernel's shape: its firing reads the n items from off
// on (relative to its read end), pops pops items and pushes one.
type rowKernel struct {
	off, n, pops int
	// field is F's index, -1 for a plain sum; F[q:q+n] are the factors.
	field, q int
	init     float64
	// scaled: the push is sum op c, or c op sum when cFirst.
	scaled, cFirst bool
	op             wfunc.BinOp
	c              float64
}

// scale is what the firing pushes for sum a.
func (rk *rowKernel) scale(a float64) float64 {
	switch {
	case !rk.scaled:
		return a
	case rk.cFirst:
		return wfunc.EvalBinary(rk.op, rk.c, a)
	}
	return wfunc.EvalBinary(rk.op, a, rk.c)
}

// RowKernel reports whether m's program is a row kernel, which RunHeld
// runs four firings at a time.
func (m *Machine) RowKernel() bool { return m.prog.row != nil }

// rowOf matches a compiled work body against the row kernel shape, each
// loop by the span instruction it compiled to; nil when it is not one.
func (c *compiler) rowOf(body []wfunc.Stmt) *rowKernel {
	rk := &rowKernel{field: -1}
	acc, set := int32(-1), int32(-1) // the accumulator, and the local assigned a constant
	var drains []int32               // drain loop variables
	var cell wfunc.Expr              // la[k], once la[k] = acc stored the sum there
	pushed := false
	// sum reports whether e reads the sum: acc, or the cell holding it.
	sum := func(e wfunc.Expr) bool {
		return reflect.DeepEqual(e, &wfunc.LocalRef{Idx: int(acc)}) || cell != nil && reflect.DeepEqual(e, cell)
	}
	for _, s := range body {
		switch s := s.(type) {
		case *wfunc.PopStmt:
			rk.pops++
		case *wfunc.Assign:
			if s.LHS.Kind == wfunc.LVLocalArr {
				k, isConst := s.LHS.Index.(*wfunc.Const)
				if cell != nil || pushed || acc < 0 || !sum(s.X) ||
					!isConst || !rowConst(k.V) || k.V >= float64(c.p.arraySizes[s.LHS.Idx]) {
					return nil
				}
				cell = &wfunc.LocalIndex{Arr: s.LHS.Idx, Index: k}
				continue
			}
			k, ok := s.X.(*wfunc.Const)
			if !ok || s.LHS.Kind != wfunc.LVLocal || set >= 0 || acc >= 0 {
				return nil
			}
			set, rk.init = int32(s.LHS.Idx), k.V
		case *wfunc.For:
			i, ok := c.spanOf[s]
			from, isConst := s.From.(*wfunc.Const)
			if !ok || !isConst || !rowConst(from.V) {
				return nil
			}
			sp := &c.p.spans[i]
			trips := max(int(sp.bound-from.V), 0)
			x, f := sp.opnd[0], sp.opnd[1]
			switch {
			case sp.kind == spanDrain:
				rk.pops += trips
				drains = append(drains, sp.v)
				continue
			case sp.kind != spanReduce || acc >= 0 || from.V != 0 || trips == 0:
				return nil
			case x.kind == opndPeek && x.slot < 0 && rowConst(x.off):
				rk.off = rk.pops + int(x.off)
			case x.kind == opndPop:
				rk.off = rk.pops
				rk.pops += trips
			default:
				return nil
			}
			if f.kind == opndField && f.slot < 0 && rowConst(f.off) {
				rk.field, rk.q = int(f.arr), int(f.off)
			} else if f.kind != opndNone {
				return nil
			}
			acc, rk.n = sp.acc, trips
		case *wfunc.PushStmt:
			x := s.X
			if b, ok := x.(*wfunc.Binary); ok && (b.Op == wfunc.Mul || b.Op == wfunc.Div) {
				if c, ok := b.B.(*wfunc.Const); ok {
					x, rk.scaled, rk.op, rk.c = b.A, true, b.Op, c.V
				} else if c, ok := b.A.(*wfunc.Const); ok && b.Op == wfunc.Mul {
					x, rk.scaled, rk.op, rk.c, rk.cFirst = b.B, true, b.Op, c.V, true
				}
			}
			if acc < 0 || pushed || !sum(x) {
				return nil
			}
			pushed = true
		default:
			return nil
		}
	}
	if !pushed || set >= 0 && set != acc || slices.Contains(drains, acc) {
		return nil
	}
	return rk
}

// rowConst reports whether x is a non-negative integer the span guards
// accept.
func rowConst(x float64) bool { return x >= 0 && x < spanLimit && x == math.Trunc(x) }

// RunHeld fires a held block of in's consumer: iters steady iterations of
// reps firings each, in's visible end held at iteration T (from 1) to
// min(top, first+T·per), top being its end on entry — what a run of one
// iteration at a time has buffered when the filter fires its T-th. A row
// kernel's firings run four at a time while every lane's window lies inside
// its own iteration's held end and F is long enough; the rest of the block,
// and any other program's, runs in RunN one iteration at a time under the
// hold, the only fault path. *fired counts completed firings as RunN's
// does.
func (m *Machine) RunHeld(in, out *wfunc.Ring, iters, reps, per, first int64, fired *int64, print func(float64)) error {
	top := in.Pushed
	defer func() { in.Pushed = top }()
	n, f := iters*reps, int64(0)
	if m.prog.row != nil {
		f = m.lanes(in, out, n, reps, per, first, top)
		*fired += f
	}
	for f < n {
		T := f/reps + 1
		in.Pushed = min(top, first+T*per)
		if err := m.RunN(in, out, T*reps-f, fired, nil, print); err != nil {
			return err
		}
		f = T * reps
	}
	return nil
}

// lanes runs the row kernel's firings from the block's first in groups of
// four while the guard holds, and returns how many it ran. Lane j of the
// group from firing f reads the window pops·j items further along than
// lane 0 and belongs to iteration (f+j)/reps + 1, held as RunHeld's.
func (m *Machine) lanes(in, out *wfunc.Ring, n, reps, per, first, top int64) int64 {
	rk := m.prog.row
	var w []float64
	if rk.field >= 0 {
		if m.state == nil || len(m.state.Arrays[rk.field]) < rk.q+rk.n {
			return 0
		}
		w = m.state.Arrays[rk.field][rk.q : rk.q+rk.n]
	}
	pops, need := int64(rk.pops), int64(max(rk.pops, rk.off+rk.n))
	// it is the iteration of the group's next lane, left the firings
	// remaining in it.
	it, left := int64(1), reps
	var f int64
	for ; f+4 <= n; f += 4 {
		for j := int64(0); j < 4; j++ {
			if left == 0 {
				it, left = it+1, reps
			}
			left--
			if in.Popped+pops*j+need > min(top, first+it*per) {
				return f
			}
		}
		buf, base, mask, _ := in.Window()
		at := base + rk.off
		for _, a := range dot4(buf, mask, [4]int{at, at + rk.pops, at + 2*rk.pops, at + 3*rk.pops}, w, rk.n, rk.init) {
			out.Push(rk.scale(a))
		}
		in.Advance(4 * rk.pops)
	}
	return f
}

// dot4 returns four dot products, one a lane, each init plus its n terms
// added in IL order: term k of lane j is x·w[k], or x alone when w is nil,
// x being buf[(at[j]+k)&mask]. The lanes share w and run in segments that
// no lane's window wraps inside.
func dot4(buf []float64, mask int, at [4]int, w []float64, n int, init float64) [4]float64 {
	a0, a1, a2, a3 := init, init, init, init
	for k := 0; k < n; {
		var ix [4]int
		seg := n - k
		for j := range ix {
			ix[j] = (at[j] + k) & mask
			seg = min(seg, len(buf)-ix[j])
		}
		x0, x1, x2, x3 := buf[ix[0]:][:seg], buf[ix[1]:][:seg], buf[ix[2]:][:seg], buf[ix[3]:][:seg]
		if w == nil {
			for i := range x0 {
				a0 += x0[i]
				a1 += x1[i]
				a2 += x2[i]
				a3 += x3[i]
			}
		} else {
			for i, c := range w[k:][:seg] {
				// The conversions keep Go from fusing a multiply into the
				// add, as in the span instructions.
				a0 += float64(x0[i] * c)
				a1 += float64(x1[i] * c)
				a2 += float64(x2[i] * c)
				a3 += float64(x3[i] * c)
			}
		}
		k += seg
	}
	return [4]float64{a0, a1, a2, a3}
}
