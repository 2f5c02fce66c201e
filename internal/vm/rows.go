package vm

import (
	"math"
	"reflect"
	"slices"

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
//
// fuse.Chain's FIR heads (FilterBank) differ: acc = c is a run of local =
// constant (acc among them, j not), P pops follow the inner loop, and the
// sum may go to la[cursor] (cursor = cursor + 1) or la[a'·j+b']. With P > 0
// the rows are a row kernel's firings (a = 0), run by its four-window loop.

// rowsShape is a rows span's shape; its spanInstr holds j, acc and R.
type rowsShape struct {
	i, field int32    // the inner loop variable, and F
	n, p     int      // N, and the peek offset
	a, b     int      // row j reads F from a·j+b on
	pops     int      // P
	sets     []preset // the prelude, acc's included
	// Where the sums go: the out tape when la < 0, else la[cursor] when
	// cursor ≥ 0 (sa = 1), else la[sa·j+sb].
	la, cursor int32
	sa, sb     int
	// The inner loop's index in the row body, the inner reduce span's F
	// operand, and its hidden slot for a·j+b.
	loop, fieldAt, slot int32
}

// preset is one local = constant of a row's prelude.
type preset struct {
	l int32
	v float64
}

func (rs *rowsShape) off(j int) int { return rs.a*j + rs.b }

// rowsSpan matches body as a rows span's and fills sp; spanMatch must take
// the inner loop's statement for a reduce span's, as for its own span.
func (c *compiler) rowsSpan(body []wfunc.Stmt, sp *spanInstr) bool {
	rs := &rowsShape{la: -1, cursor: -1, sa: 1}
	k := 0
	for ; k < len(body); k++ {
		set, ok := body[k].(*wfunc.Assign)
		if !ok {
			break
		}
		x, isConst := set.X.(*wfunc.Const)
		if !isConst || set.LHS.Kind != wfunc.LVLocal || int32(set.LHS.Idx) == sp.v {
			return false
		}
		rs.sets = append(rs.sets, preset{int32(set.LHS.Idx), x.V})
	}
	if k == len(body) {
		return false
	}
	inner, _ := body[k].(*wfunc.For)
	if inner == nil || len(inner.Body) != 1 {
		return false
	}
	rs.loop = int32(k)
	for k++; k < len(body); k++ {
		if _, ok := body[k].(*wfunc.PopStmt); !ok {
			break
		}
		rs.pops++
	}
	from, _ := inner.From.(*wfunc.Const)
	to, _ := inner.To.(*wfunc.Const)
	step, _ := inner.Step.(*wfunc.Const)
	row := spanInstr{v: int32(inner.Var)}
	offs, ok := spanMatch(inner.Body[0], &row)
	if !ok || row.kind != spanReduce || row.acc == sp.v || row.v == sp.v || from == nil || from.V != 0 ||
		to == nil || !rowConst(to.V) || inner.Step != nil && (step == nil || step.V != 1) || !rs.output(body[k:], row.acc, sp) {
		return false
	}
	if !slices.ContainsFunc(rs.sets, func(s preset) bool { return s.l == row.acc }) ||
		slices.ContainsFunc(rs.sets, func(s preset) bool { return s.l == rs.cursor }) ||
		rs.cursor == sp.v || rs.cursor == row.v || rs.cursor == row.acc {
		return false
	}
	rs.i, rs.n = row.v, int(to.V)
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
	if row.opnd[0].kind == row.opnd[1].kind || rs.pops > 0 && rs.a != 0 {
		return false // two peeks or two reads of F; windows that move under moving weights
	}
	sp.kind, sp.acc, sp.rows = spanRows, row.acc, rs
	return true
}

// output matches a row's last statements, which put sum acc where it goes:
// push(acc), la[a'·j+b'] = acc, or la[c] = acc; c = c + 1 for a cursor
// local c.
func (rs *rowsShape) output(out []wfunc.Stmt, acc int32, sp *spanInstr) bool {
	sum := &wfunc.LocalRef{Idx: int(acc)}
	if len(out) == 0 || len(out) > 2 {
		return false
	}
	store, _ := out[0].(*wfunc.Assign)
	switch {
	case len(out) == 1 && reflect.DeepEqual(out[0], wfunc.Push1(sum)):
		return true
	case store == nil || store.LHS.Kind != wfunc.LVLocalArr || !reflect.DeepEqual(store.X, sum):
		return false
	}
	rs.la = int32(store.LHS.Idx)
	if len(out) == 1 {
		a, b, ok := affine(store.LHS.Index, sp.v, max(sp.bound, 1))
		rs.sa, rs.sb = int(a), int(b)
		return ok
	}
	cur, _ := store.LHS.Index.(*wfunc.LocalRef)
	if cur == nil || !reflect.DeepEqual(out[1], wfunc.Set(cur, wfunc.AddX(cur, wfunc.C(1)))) {
		return false
	}
	rs.cursor = int32(cur.Idx)
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
	from, to, rows := int(start), int(s.bound), int(s.bound-start)
	iw, _ := in.(wfunc.Window)
	if iw == nil || m.state == nil {
		return false
	}
	f := m.state.Arrays[rs.field]
	if lo, hi := min(rs.off(from), rs.off(to-1)), max(rs.off(from), rs.off(to-1)); lo < 0 || hi+rs.n > len(f) {
		return false
	}
	// Row from+r's sum goes to dst.buf[(dst.base+r·sa)&dst.mask].
	var ow wfunc.Window
	dst := spanView{mask: -1}
	if rs.la < 0 {
		if ow, _ = out.(wfunc.Window); ow == nil || rows > mapMaxItems {
			return false
		}
		// Reserve first: a reservation may grow a ring, moving its storage.
		dst.buf, dst.base, dst.mask = ow.Reserve(rows)
	} else {
		dst.buf, dst.base = m.arrays[rs.la], rs.sa*from+rs.sb
		if rs.cursor >= 0 {
			c0 := m.regs[rs.cursor]
			if !(math.Abs(c0) < spanLimit) || c0 != math.Trunc(c0) {
				return false
			}
			dst.base = int(c0)
		}
		if last := dst.base + rs.sa*(rows-1); min(dst.base, last) < 0 || max(dst.base, last) >= len(dst.buf) {
			return false
		}
	}
	buf, base, mask, buffered := iw.Window()
	if rs.p+rs.pops*(rows-1)+rs.n > buffered || rs.pops*rows > buffered {
		return false
	}
	// The prelude leaves acc at its init, and every other local it assigns
	// as the generic loop does.
	for _, set := range rs.sets {
		m.regs[set.l] = set.v
	}
	init := m.regs[s.acc]
	win := spanView{buf, base + rs.p, mask}
	var sums [4]float64
	for j := from; j < to; j += 4 {
		// A last group short of four rows repeats its last row.
		if rs.pops > 0 {
			var at [4]int
			for k := range at {
				at[k] = base + rs.p + rs.pops*(min(j+k, to-1)-from)
			}
			sums = dot4(buf, mask, at, f[rs.b:][:rs.n], rs.n, init)
		} else {
			sums = rs.shared(win, f, j, to, init)
		}
		for k, sum := range sums[:min(4, to-j)] {
			dst.buf[(dst.base+(j+k-from)*rs.sa)&dst.mask] = sum
		}
	}
	// Every local as the generic loop leaves it; lane 3 ran the last row.
	m.regs[s.v], m.regs[rs.i], m.regs[s.acc] = s.bound, float64(rs.n), sums[3]
	if rs.cursor >= 0 {
		m.regs[rs.cursor] += float64(rows)
	}
	if rs.slot >= 0 {
		m.regs[rs.slot] = float64(rs.off(to - 1))
	}
	iw.Advance(rs.pops * rows)
	if ow != nil {
		ow.Commit(rows)
	}
	return true
}

// shared returns rows j to j+3's sums, each init plus its N terms in IL
// order, the rows past to-1 repeating it. Every row reads the same items
// of win: one wrap point for all four.
func (rs *rowsShape) shared(win spanView, f []float64, j, to int, init float64) [4]float64 {
	w0, w1, w2, w3 := f[rs.off(j):], f[rs.off(min(j+1, to-1)):], f[rs.off(min(j+2, to-1)):], f[rs.off(min(j+3, to-1)):]
	a0, a1, a2, a3 := init, init, init, init
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
	return [4]float64{a0, a1, a2, a3}
}
