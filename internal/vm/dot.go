package vm

import (
	"math"
	"reflect"
	"slices"

	"streamit/internal/wfunc"
)

// Dot-product nests. The paper's linear filters are matrix–vector
// products, and the suite's hot loops compute their rows: row r's sum is
//
//	init + Σ_{i<N} x[p + P·r + i] · F[q + a·r + i]
//
// over the input window x, with F a field array (absent for a plain sum)
// and the additions in IL order. As one chain of dependent adds a row is
// latency-bound; a nest runs four rows at a time, one accumulator each, so
// four chains overlap and every sum is the generic code's bit for bit. Two
// kinds of code are nests, and one descriptor, one recogniser (dotRow),
// one guard and exit writer (nest) and one executor (four) serve both:
//
//   - a row kernel is a work function whose firings are the rows (every
//     FIR and adder of the suite, fuse.Chain's FIR-then-gain): P is its
//     pops per firing and a = 0. RunHeld runs a held block's firings as
//     rows.
//   - a rows span is a row loop inside one firing (apps.MatMul): P = 0,
//     and F's offset is affine in the row. The span instruction in front
//     of the loop runs it (span.go).
//
// The rows share the window when P = 0, and the weights otherwise.

// dotNest is one nest's shape.
type dotNest struct {
	n, p, pops int   // N, the window offset p, and P
	field      int32 // F, -1 for a plain sum
	q, a       int   // row r reads F from q + a·r on
	init       float64
	// A row kernel may scale its push: sum op c, or c op sum when cFirst.
	scaled, cFirst bool
	op             wfunc.BinOp
	c              float64
	// The sink: the out tape when la < 0, else la[sa·r+sb].
	la     int32
	sa, sb int
	// A rows span's row opens with its prelude, local = constant, acc's
	// included, and leaves those locals, the accumulator and the inner
	// loop's variable i as the generic loop would. (The inner reduce span's
	// hidden offset slot needs nothing: its prologue fills it before every
	// read.)
	prelude []preset
	acc, i  int32
}

// preset is one local = constant of a row's prelude.
type preset struct {
	l int32
	v float64
}

// off is where row r reads F from.
func (d *dotNest) off(r int) int { return d.q + d.a*r }

// RowKernel reports whether m's program is a row kernel, which RunHeld
// runs four firings at a time.
func (m *Machine) RowKernel() bool { return m.prog.row != nil }

// dotRow matches a row body against the nest shape and returns its
// descriptor, nil when it is not one. The row's one loop is
// for i = 0; i < N; i += 1 whose body spanMatch takes for a reduce span,
// acc = acc + x * F[i+…] with x a peek at a constant offset, its factors
// in either order, and only local = constant assignments precede it.
//
// With j < 0 the body is a work function's (a row kernel): pops (pop()
// statements or counted drain loops) may stand around the loop, x may be
// a pop(), F may be absent, acc starts at 0 unless the prelude sets it,
// and one push follows the loop, of acc or of the cell one la[k] = acc
// stored it to (k a constant inside la), alone, times a constant in
// either order or divided by one. Else the body is row loop j's, over
// [0, bound) (a rows span): it pops nothing, reads F, its prelude sets acc
// and not j, and it ends in push(acc) or la[a'·j+b'] = acc.
func (c *compiler) dotRow(body []wfunc.Stmt, j int32, bound float64) *dotNest {
	kernel := j < 0
	d := &dotNest{field: -1, la: -1, acc: -1}
	var drains []int32  // drain loop variables
	var cell wfunc.Expr // la[k], once a row kernel's la[k] = acc stored the sum there
	done := false       // the sum has reached its sink
	sum := func(e wfunc.Expr) bool {
		return reflect.DeepEqual(e, &wfunc.LocalRef{Idx: int(d.acc)}) || cell != nil && reflect.DeepEqual(e, cell)
	}
	for _, s := range body {
		switch s := s.(type) {
		case *wfunc.PopStmt:
			if !kernel {
				return nil
			}
			d.pops++
		case *wfunc.Assign:
			x, isConst := s.X.(*wfunc.Const)
			switch {
			case s.LHS.Kind == wfunc.LVLocal && isConst && d.acc < 0 && int32(s.LHS.Idx) != j:
				d.prelude = append(d.prelude, preset{int32(s.LHS.Idx), x.V})
				continue
			case s.LHS.Kind != wfunc.LVLocalArr || d.acc < 0 || done || d.la >= 0 || !sum(s.X):
				return nil
			}
			a, b, ok := affine(s.LHS.Index, j, bound)
			if !ok || kernel && !(b >= 0 && int(b) < c.p.arraySizes[s.LHS.Idx]) {
				return nil
			}
			// A rows span's store is its sink; a row kernel's push reads the cell.
			d.la, d.sa, d.sb, done = int32(s.LHS.Idx), int(a), int(b), !kernel
			if kernel {
				cell = &wfunc.LocalIndex{Arr: s.LHS.Idx, Index: s.LHS.Index}
			}
		case *wfunc.For:
			from, _ := s.From.(*wfunc.Const)
			sp, ok := countedLoop(s)
			if !ok || from == nil || !rowConst(from.V) || len(s.Body) != 1 {
				return nil
			}
			offs, ok := spanMatch(s.Body[0], &sp)
			switch {
			case !ok:
				return nil
			case sp.kind == spanDrain && kernel:
				d.pops += max(int(sp.bound-from.V), 0)
				drains = append(drains, sp.v)
				continue
			case sp.kind != spanReduce || d.acc >= 0 || from.V != 0 || sp.bound < 0 || sp.v == j || sp.acc == j:
				return nil
			}
			d.acc, d.i, d.n = sp.acc, sp.v, int(sp.bound)
			for o, opnd := range sp.opnd {
				p, isConst := offs[o].(*wfunc.Const)
				switch opnd.kind {
				case opndPeek:
					if !isConst || !rowConst(p.V) {
						return nil
					}
					d.p = d.pops + int(p.V)
				case opndPop:
					d.p, d.pops = d.pops, d.pops+d.n
				case opndField:
					a, b, ok := affine(offs[o], j, bound)
					if !ok {
						return nil
					}
					d.field, d.q, d.a = opnd.arr, int(b), int(a)
				case opndLocal:
					return nil
				}
			}
			if sp.peeks+sp.pops != 1 || !kernel && (d.field < 0 || d.pops > 0) {
				return nil // two tape reads or none; a matrix row that pops
			}
		case *wfunc.PushStmt:
			x := s.X
			if b, ok := x.(*wfunc.Binary); kernel && ok && (b.Op == wfunc.Mul || b.Op == wfunc.Div) {
				if k, ok := b.B.(*wfunc.Const); ok {
					x, d.scaled, d.op, d.c = b.A, true, b.Op, k.V
				} else if k, ok := b.A.(*wfunc.Const); ok && b.Op == wfunc.Mul {
					x, d.scaled, d.op, d.c, d.cFirst = b.B, true, b.Op, k.V, true
				}
			}
			if d.acc < 0 || done || !sum(x) {
				return nil
			}
			done, d.la = true, -1
		default:
			return nil
		}
	}
	isAcc := func(s preset) bool { return s.l == d.acc }
	switch {
	case !done || slices.Contains(drains, d.acc):
		return nil
	case !kernel && !slices.ContainsFunc(d.prelude, isAcc):
		return nil
	}
	for _, s := range d.prelude {
		if isAcc(s) {
			d.init = s.v
		}
	}
	return d
}

// rowConst reports whether x is a non-negative integer the span guards
// accept.
func rowConst(x float64) bool { return x >= 0 && x < spanLimit && x == math.Trunc(x) }

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

// nest runs rows from to to-1 of d if its guard holds — window tapes and
// field state, every row's window inside the buffered items and its
// weights inside F, its sum's cell inside the sink, the rows' pops
// buffered — and reports whether it did; if not, nothing has changed. The
// sums go to the sink, and in advances past the rows' pops. A rows span s
// (nil for a row kernel) leaves j, i, acc and the prelude's locals as the
// generic loop would.
func (m *Machine) nest(d *dotNest, s *spanInstr, in, out wfunc.Window, from, to int) bool {
	rows := to - from
	if in == nil || rows <= 0 {
		return false
	}
	var f []float64
	if d.field >= 0 {
		if m.state == nil {
			return false
		}
		f = m.state.Arrays[d.field]
		if lo, hi := min(d.off(from), d.off(to-1)), max(d.off(from), d.off(to-1)); lo < 0 || hi+d.n > len(f) {
			return false
		}
	}
	// Row from+r's sum goes to dst.buf[(dst.base+r·sa)&dst.mask].
	dst, sa := spanView{mask: -1}, 1
	if d.la < 0 {
		if out == nil || rows > mapMaxItems {
			return false
		}
		// Reserve first: a reservation may grow a ring, moving its storage.
		dst.buf, dst.base, dst.mask = out.Reserve(rows)
	} else {
		dst.buf, dst.base, sa = m.arrays[d.la], d.sa*from+d.sb, d.sa
		if end := dst.base + sa*(rows-1); min(dst.base, end) < 0 || max(dst.base, end) >= len(dst.buf) {
			return false
		}
	}
	buf, base, mask, buffered := in.Window()
	if d.p+d.pops*(rows-1)+d.n > buffered || d.pops*rows > buffered {
		return false
	}
	var sums [4]float64
	for r := 0; r < rows; r += 4 {
		sums = d.four(buf, mask, base+d.p, f, from, r, rows-1)
		for k, sum := range sums[:min(4, rows-r)] {
			if d.scaled && d.cFirst {
				sum = wfunc.EvalBinary(d.op, d.c, sum)
			} else if d.scaled {
				sum = wfunc.EvalBinary(d.op, sum, d.c)
			}
			dst.buf[(dst.base+(r+k)*sa)&dst.mask] = sum
		}
	}
	in.Advance(d.pops * rows)
	if d.la < 0 {
		out.Commit(rows)
	}
	if s != nil {
		for _, set := range d.prelude {
			m.regs[set.l] = set.v
		}
		// The last row ran in lane 3.
		m.regs[s.v], m.regs[d.i], m.regs[d.acc] = s.bound, float64(d.n), sums[3]
	}
	return true
}

// four returns the sums of rows from+r to from+r+3 of d, the rows past
// from+last repeating it. Row from+s reads the window buf[(at+P·s+i)&mask]
// and the weights f[off(from+s)+i] (its items alone when f is nil). When
// P = 0 the rows share the window, with one wrap point for all four;
// otherwise they share the weights (a = 0), each row's window P items
// further along, and run in segments that no row's window wraps inside.
func (d *dotNest) four(buf []float64, mask, at int, f []float64, from, r, last int) [4]float64 {
	rs := [4]int{r, min(r+1, last), min(r+2, last), min(r+3, last)}
	a0, a1, a2, a3 := d.init, d.init, d.init, d.init
	if d.pops == 0 && f != nil {
		win := spanView{buf, at, mask}
		w0, w1, w2, w3 := f[d.off(from+rs[0]):], f[d.off(from+rs[1]):], f[d.off(from+rs[2]):], f[d.off(from+rs[3]):]
		for k := 0; k < d.n; {
			xs := win.run(k, d.n)
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
	var w []float64
	if f != nil {
		w = f[d.off(from):][:d.n]
	}
	for k := 0; k < d.n; {
		var ix [4]int
		seg := d.n - k
		for l := range ix {
			ix[l] = (at + d.pops*rs[l] + k) & mask
			seg = min(seg, len(buf)-ix[l])
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

// RunHeld fires a held block of in's consumer: iters steady iterations of
// reps firings each, in's visible end held at iteration T (from 1) to
// min(top, first+T·per), top being its end on entry — what a run of one
// iteration at a time has buffered when the filter fires its T-th. A row
// kernel's firings run as one nest's rows while each firing's window lies
// inside its own iteration's held end; the rest of the block, and any
// other program's, runs in RunN one iteration at a time under the hold,
// the only fault path. *fired counts completed firings as RunN's does.
func (m *Machine) RunHeld(in, out *wfunc.Ring, iters, reps, per, first int64, fired *int64, print func(float64)) error {
	top := in.Pushed
	defer func() { in.Pushed = top }()
	n, f := iters*reps, int64(0)
	if d := m.prog.row; d != nil {
		// Firing f's window ends P·f + max(P, p+N) items past the read end,
		// inside its iteration's held end. Within an iteration the windows
		// grow against one end, so the last firing decides the iteration;
		// the first iteration it fails runs as far as its firings fit.
		lim, P, need := min(n, mapMaxItems), int64(d.pops), in.Popped+int64(max(d.pops, d.p+d.n))
		for T := int64(1); f < lim; T++ {
			end, last := min(top, first+T*per)-need, min(T*reps, lim)
			if P*(last-1) <= end {
				f = last
				continue
			}
			for P*f <= end {
				f++
			}
			break
		}
		if !m.nest(d, nil, in, out, 0, int(f)) {
			f = 0
		}
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
