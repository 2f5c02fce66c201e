package vm

import (
	"math"

	"streamit/internal/wfunc"
)

// Matrix rows. A matrix–vector product (apps.MatMul) computes one row a
// trip: for j = From; j < R; j += 1 { acc = c; for i = 0; i < N; i += 1 {
// acc = acc + peek(i+p) * F[i + a·j+b] }; push(acc) }, with R, N, p, c, a
// and b constants, F a field array and the factors in either order. Each
// row is one chain of dependent adds; the rows span runs the loop four rows
// at a time, one accumulator each, every row's additions in IL order, so
// four chains overlap and every output is the generic code's bit for bit.
// Its guard is checked once on entry; when it fails, the generic loop runs.

// rowsShape is a rows span's shape; its spanInstr holds j, acc and R.
type rowsShape struct {
	i, field int32 // the inner loop variable, and F
	n, p     int   // N, and the peek offset
	a, b     int   // row j reads F from a·j+b on
	init     float64
	// The inner reduce span's F operand, and its hidden slot for a·j+b.
	fieldAt, slot int32
}

func (rs *rowsShape) off(j int) int { return rs.a*j + rs.b }

// rowsSpan matches body as a rows span's and fills sp; spanMatch must take
// the inner loop's statement for a reduce span's, as for its own span.
func (c *compiler) rowsSpan(body []wfunc.Stmt, sp *spanInstr) bool {
	if len(body) != 3 {
		return false
	}
	set, _ := body[0].(*wfunc.Assign)
	inner, _ := body[1].(*wfunc.For)
	push, _ := body[2].(*wfunc.PushStmt)
	if set == nil || inner == nil || push == nil || len(inner.Body) != 1 {
		return false
	}
	init, isConst := set.X.(*wfunc.Const)
	pushed, isLocal := push.X.(*wfunc.LocalRef)
	from, _ := inner.From.(*wfunc.Const)
	to, _ := inner.To.(*wfunc.Const)
	step, _ := inner.Step.(*wfunc.Const)
	row := spanInstr{v: int32(inner.Var)}
	offs, ok := spanMatch(inner.Body[0], &row)
	if !ok || row.kind != spanReduce || set.LHS != (wfunc.LValue{Kind: wfunc.LVLocal, Idx: int(row.acc)}) || !isConst ||
		!isLocal || int32(pushed.Idx) != row.acc || row.acc == sp.v || row.v == sp.v ||
		from == nil || from.V != 0 || to == nil || !rowConst(to.V) || inner.Step != nil && (step == nil || step.V != 1) {
		return false
	}
	rs := &rowsShape{i: row.v, n: int(to.V), init: init.V}
	for k, o := range row.opnd {
		p, constOff := offs[k].(*wfunc.Const)
		a, b, affine := affine(offs[k], sp.v, max(sp.bound, 1))
		switch {
		case o.kind == opndPeek && constOff && rowConst(p.V):
			rs.p = int(p.V)
		case o.kind == opndField && affine:
			rs.field, rs.fieldAt, rs.a, rs.b = o.arr, int32(k), int(a), int(b)
		default:
			return false
		}
	}
	if row.opnd[0].kind == row.opnd[1].kind {
		return false // two peeks or two reads of F
	}
	sp.kind, sp.acc, sp.rows = spanRows, row.acc, rs
	return true
}

// affine returns e, built from local j and constants under + - * and
// negation, as a·j + b. Each subexpression must have integer coefficients
// and stay below spanLimit for j in [0, bound): the interpreter's is exact.
func affine(e wfunc.Expr, j int32, bound float64) (a, b float64, ok bool) {
	switch e := e.(type) {
	case *wfunc.Const:
		a, b, ok = 0, e.V, true
	case *wfunc.LocalRef:
		a, b, ok = 1, 0, int32(e.Idx) == j
	case *wfunc.Unary:
		a, b, ok = affine(e.X, j, bound)
		a, b, ok = -a, -b, ok && e.Op == wfunc.Neg
	case *wfunc.Binary:
		a1, b1, ok1 := affine(e.A, j, bound)
		a2, b2, ok2 := affine(e.B, j, bound)
		switch ok = ok1 && ok2; {
		case e.Op == wfunc.Sub:
			a2, b2 = -a2, -b2
			fallthrough
		case e.Op == wfunc.Add:
			a, b = a1+a2, b1+b2
		case e.Op == wfunc.Mul && a1*a2 == 0:
			a, b = float64(a1*b2)+float64(b1*a2), b1*b2 // float64(): no fused multiply-add
		default:
			ok = false
		}
	}
	return a, b, ok && a == math.Trunc(a) && b == math.Trunc(b) && float64(math.Abs(a)*bound)+math.Abs(b) < spanLimit
}

// rowsSpan runs rows span s if its guard holds and reports whether it
// did; if not, nothing has changed.
func (m *Machine) rowsSpan(s *spanInstr, in, out wfunc.Tape) bool {
	rs := s.rows
	start := m.regs[s.v]
	if !(start >= 0 && start < s.bound) || start != math.Trunc(start) {
		return false
	}
	from, to := int(start), int(s.bound)
	iw, _ := in.(wfunc.Window)
	ow, _ := out.(wfunc.Window)
	if iw == nil || ow == nil || m.state == nil || to-from > mapMaxItems {
		return false
	}
	f := m.state.Arrays[rs.field]
	if lo, hi := min(rs.off(from), rs.off(to-1)), max(rs.off(from), rs.off(to-1)); lo < 0 || hi+rs.n > len(f) {
		return false
	}
	// Reserve first: a reservation may grow a ring, moving its storage.
	obuf, obase, omask := ow.Reserve(to - from)
	buf, base, mask, buffered := iw.Window()
	if rs.p+rs.n > buffered {
		return false
	}
	// Every row reads the same items: one wrap point for all four.
	win := spanView{buf, base + rs.p, mask}
	var sums [4]float64
	for j := from; j < to; j += 4 {
		// A last group short of four rows repeats its last row.
		w0, w1, w2, w3 := f[rs.off(j):], f[rs.off(min(j+1, to-1)):], f[rs.off(min(j+2, to-1)):], f[rs.off(min(j+3, to-1)):]
		a0, a1, a2, a3 := rs.init, rs.init, rs.init, rs.init
		for k := 0; k < rs.n; {
			xs := win.run(k, rs.n)
			v0, v1, v2, v3 := w0[k:][:len(xs)], w1[k:][:len(xs)], w2[k:][:len(xs)], w3[k:][:len(xs)]
			for t, x := range xs {
				// float64() forbids fusing the multiply into the add.
				a0 += float64(x * v0[t])
				a1 += float64(x * v1[t])
				a2 += float64(x * v2[t])
				a3 += float64(x * v3[t])
			}
			k += len(xs)
		}
		sums = [4]float64{a0, a1, a2, a3}
		for k, sum := range sums[:min(4, to-j)] {
			obuf[(obase+j+k-from)&omask] = sum
		}
	}
	// Every local as the generic loop leaves it; lane 3 ran the last row.
	m.regs[s.v], m.regs[rs.i], m.regs[s.acc] = s.bound, float64(rs.n), sums[3]
	if rs.slot >= 0 {
		m.regs[rs.slot] = float64(rs.off(to - 1))
	}
	ow.Commit(to - from)
	return true
}
