package vm

import (
	"math"
	"slices"

	"streamit/internal/wfunc"
)

// Row kernels. Every FIR and adder of the suite fires as one dot product
// over its peek window, a row of a matrix–vector product: pops (pop()
// statements or counted drain loops) around one loop
// for v = 0; v < N; v += 1 whose reduce span is acc = acc + x[v+p] or
// acc = acc + x[v+p] * F[v+q] — x a peek or a pop, F a field array, p and
// q integer constants — at most one acc = c before it (acc starts at 0
// without it) and one push(acc) after it. As one chain of dependent adds a
// firing is latency-bound; RunHeld runs a held block's firings four at a
// time, one accumulator each, its additions in IL order, so four chains
// overlap and every output is the generic code's bit for bit.

// rowKernel is a row kernel's shape: its firing reads the n items from off
// on (relative to its read end), pops pops items and pushes one.
type rowKernel struct {
	off, n, pops int
	// field is F's index, -1 for a plain sum; F[q:q+n] are the factors.
	field, q int
	init     float64
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
	pushed := false
	for _, s := range body {
		switch s := s.(type) {
		case *wfunc.PopStmt:
			rk.pops++
		case *wfunc.Assign:
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
			l, ok := s.X.(*wfunc.LocalRef)
			if !ok || acc < 0 || pushed || int32(l.Idx) != acc {
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
// lane 0 and belongs to iteration (f+j)/reps + 1, held as RunHeld's. A
// group's taps run in segments that no lane's window wraps inside.
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
		a0, a1, a2, a3 := rk.init, rk.init, rk.init, rk.init
		for k := 0; k < rk.n; {
			var at [4]int
			seg := rk.n - k
			for j := range at {
				at[j] = (base + rk.off + j*rk.pops + k) & mask
				seg = min(seg, len(buf)-at[j])
			}
			x0, x1, x2, x3 := buf[at[0]:][:seg], buf[at[1]:][:seg], buf[at[2]:][:seg], buf[at[3]:][:seg]
			if w == nil {
				for i := range x0 {
					a0 += x0[i]
					a1 += x1[i]
					a2 += x2[i]
					a3 += x3[i]
				}
			} else {
				for i, c := range w[k:][:seg] {
					// The conversions keep Go from fusing a multiply into
					// the add, as in the span instructions.
					a0 += float64(x0[i] * c)
					a1 += float64(x1[i] * c)
					a2 += float64(x2[i] * c)
					a3 += float64(x3[i] * c)
				}
			}
			k += seg
		}
		in.Advance(4 * rk.pops)
		out.Push(a0)
		out.Push(a1)
		out.Push(a2)
		out.Push(a3)
	}
	return f
}
