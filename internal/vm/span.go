package vm

import (
	"math"

	"streamit/internal/wfunc"
)

// Span instructions. Rates are static, so the items a counted loop touches
// are known when it is entered. For a closed family of loops
//
//	for v = From; v < Const; v += 1 { body }
//
// the compiler puts one opSpan in front of the loop's ordinary code:
//
//	reduce  acc = acc + a[v+p] * b[v+q]    acc = acc + a[v+p]
//	drain   pop()
//	move    a[v+p] = b[v+q]
//	map     push(E); t = E; la[I] = E; ...  straight-line, E and I pure
//	rows    acc = c; for i { acc = acc + peek(i+p)*F[i+a·v+b] }; push(acc) or la[a'·v+b'] = acc  (dot.go)
//
// A reduce operand is a peek, a pop(), a field array or a local array; a
// move goes between arrays. p and q are loop-invariant and cannot fault:
// constants and other locals under + - *, evaluated once on loop entry.
// A map body is push statements, assignments to body locals and stores to
// local arrays, over expressions that read peeks, arrays, fields,
// constants, the loop variable and locals the loop does not assign, under
// any operator; a body local must be assigned in a trip before it is read
// there, no expression may read an array the body stores to, and an array
// stored by several statements takes indices c·v + k that cannot meet
// (map.go).
//
// At run time the instruction checks that every access of the whole loop
// is in range — once on entry, except at each read and store for a map,
// whose pushes stay uncommitted in the out tape's reservation until every
// trip has succeeded. If so it has run the loop natively, leaves the loop
// variable at its exit value and jumps past the loop. If not it falls into
// the generic loop, which raises the fault the interpreter raises, at the
// iteration it raises it. It has changed nothing the generic loop would
// not change the same way: a map's stores land in place, and the rerun
// makes each of them again (map.go).

type spanKind uint8

const (
	spanReduce spanKind = iota
	spanDrain
	spanMove
	spanMap
	spanRows
)

type opndKind uint8

const (
	opndNone opndKind = iota
	opndPeek
	opndPop
	opndField
	opndLocal
)

// spanOperand is one a[v+p]: the storage, and the offset p — the constant
// off, or what the loop's prologue left in hidden local slot.
type spanOperand struct {
	kind opndKind
	arr  int32
	slot int32 // negative: p is off
	off  float64
}

// spanInstr is the side-table entry of one opSpan.
type spanInstr struct {
	kind spanKind
	// peeks and pops are the tape operations of one trip (a map's peeks is
	// 1 when it peeks at all); a span with neither never reads the tape.
	peeks, pops uint8
	v           int32 // loop variable
	acc         int32 // reduce: the accumulator local
	// bound is the first integer not below the loop's constant bound: the
	// end of the trip count and the loop variable's exit value.
	bound float64
	// reduce: the factors in the IL's order (the second opndNone for a
	// plain sum). move: destination and source.
	opnd [2]spanOperand
	// map: the expression program (map.go).
	mapped *mapProg
	nest   *dotNest // rows: the row loop's nest (dot.go)
	// exit is the pc behind the loop, where a span that ran continues.
	exit int32
}

// spanLimit bounds a span's start, bound and offsets, so that the
// interpreter's float64 index sums are exact and the integer ones here
// cannot overflow a 32-bit int.
const spanLimit = 1 << 30

// SpanCounts returns the number of span instructions in the program by
// kind, so tests can pin which loops the compiler recognises.
func (p *Program) SpanCounts() (reduce, drain, move, mapped, rows int) {
	for i := range p.spans {
		switch p.spans[i].kind {
		case spanReduce:
			reduce++
		case spanDrain:
			drain++
		case spanMove:
			move++
		case spanMap:
			mapped++
		case spanRows:
			rows++
		}
	}
	return
}

// span adds loop s's span, emits the code that fills its hidden offset
// slots and returns the span's index, for the opSpan in front of the loop;
// -1, with nothing emitted, when s is not in the family.
func (c *compiler) span(s *wfunc.For) int {
	loop, ok := countedLoop(s)
	if !ok {
		return -1
	}
	sp := loop
	if len(s.Body) != 1 || !c.spanStmt(s.Body[0], &sp) {
		if sp = loop; !c.mapSpan(s.Body, &sp) {
			if sp.nest = c.dotRow(s.Body, sp.v, max(sp.bound, 1)); sp.nest == nil {
				return -1
			}
			sp.kind = spanRows
		}
	}
	c.p.spans = append(c.p.spans, sp)
	return len(c.p.spans) - 1
}

// countedLoop returns the span instruction of loop s, its kind yet to be
// matched, when s is for v = From; v < Const; v += 1 with a bound the
// guards accept.
func countedLoop(s *wfunc.For) (spanInstr, bool) {
	to, ok := s.To.(*wfunc.Const)
	step, unit := s.Step.(*wfunc.Const)
	sp := spanInstr{v: int32(s.Var), acc: -1}
	if !ok || s.Step != nil && !(unit && step.V == 1) {
		return sp, false
	}
	sp.bound = math.Ceil(to.V)
	return sp, math.Abs(sp.bound) < spanLimit
}

// spanStmt matches a one-statement body against reduce, drain and move,
// filling sp and emitting the code that fills its hidden offset slots.
func (c *compiler) spanStmt(body wfunc.Stmt, sp *spanInstr) bool {
	offs, ok := spanMatch(body, sp)
	if !ok {
		return false
	}
	for i := range sp.opnd {
		o := &sp.opnd[i]
		switch off := offs[i].(type) {
		case nil:
		case *wfunc.Const:
			o.slot, o.off = -1, off.V
		default:
			o.slot = int32(c.p.numLocals)
			c.p.numLocals++
			c.expr(off, o.slot)
		}
	}
	return true
}

// spanMatch matches a one-statement body against reduce, drain and move,
// filling sp, and returns the operands' offset expressions.
func spanMatch(body wfunc.Stmt, sp *spanInstr) (offs [2]wfunc.Expr, ok bool) {
	var reads []wfunc.Expr // the operands, in opnd's order
	switch st := body.(type) {
	case *wfunc.PopStmt:
		sp.kind, sp.pops = spanDrain, 1
	case *wfunc.Assign:
		switch st.LHS.Kind {
		case wfunc.LVLocal:
			sum, ok := st.X.(*wfunc.Binary)
			if !ok || sum.Op != wfunc.Add || st.LHS.Idx == int(sp.v) {
				return offs, false
			}
			if l, ok := sum.A.(*wfunc.LocalRef); !ok || l.Idx != st.LHS.Idx {
				return offs, false
			}
			sp.kind, sp.acc = spanReduce, int32(st.LHS.Idx)
			reads = []wfunc.Expr{sum.B}
			if mul, ok := sum.B.(*wfunc.Binary); ok && mul.Op == wfunc.Mul {
				reads = []wfunc.Expr{mul.A, mul.B}
			}
		case wfunc.LVLocalArr:
			sp.kind = spanMove
			reads = []wfunc.Expr{&wfunc.LocalIndex{Arr: st.LHS.Idx, Index: st.LHS.Index}, st.X}
		case wfunc.LVFieldArr:
			sp.kind = spanMove
			reads = []wfunc.Expr{&wfunc.FieldIndex{Arr: st.LHS.Idx, Index: st.LHS.Index}, st.X}
		default:
			return offs, false
		}
	default:
		return offs, false
	}
	for i, e := range reads {
		if sp.opnd[i], offs[i], ok = spanRead(e, sp); !ok {
			return offs, false
		}
		switch sp.opnd[i].kind {
		case opndPeek:
			sp.peeks++
		case opndPop:
			sp.pops++
		}
	}
	switch a, b := sp.opnd[0], sp.opnd[1]; {
	case sp.kind == spanReduce && (sp.pops > 1 || sp.pops == 1 && sp.peeks > 0):
		// One pop at most, and no peek beside it: a pop moves what a peek's
		// index is relative to.
		return offs, false
	case sp.kind == spanMove && sp.peeks+sp.pops > 0:
		return offs, false // between arrays only
	case sp.kind == spanMove && a.kind == b.kind && a.arr == b.arr:
		// Within one array only a copy toward lower indices reads every
		// element before the loop would have overwritten it.
		p, constP := offs[0].(*wfunc.Const)
		q, constQ := offs[1].(*wfunc.Const)
		if !constP || !constQ || p.V > q.V {
			return offs, false
		}
	}
	return offs, true
}

// spanRead matches one readable operand a[v+p] of sp's loop and returns it
// with its offset expression p (nil for a pop, which has none).
func spanRead(e wfunc.Expr, sp *spanInstr) (spanOperand, wfunc.Expr, bool) {
	var o spanOperand
	var index wfunc.Expr
	switch e := e.(type) {
	case *wfunc.Peek:
		o.kind, index = opndPeek, e.Index
	case *wfunc.PopExpr:
		return spanOperand{kind: opndPop}, nil, true
	case *wfunc.FieldIndex:
		o.kind, o.arr, index = opndField, int32(e.Arr), e.Index
	case *wfunc.LocalIndex:
		o.kind, o.arr, index = opndLocal, int32(e.Arr), e.Index
	default:
		return o, nil, false
	}
	off, ok := spanOffset(index, sp)
	return o, off, ok
}

// spanOffset splits an index into the loop variable plus a loop-invariant
// offset and returns the offset. The variable must sit at the top level —
// v, v+P, P+v or v-P — so that the one sum the interpreter rounds is the
// one the guard proves exact.
func spanOffset(index wfunc.Expr, sp *spanInstr) (wfunc.Expr, bool) {
	isVar := func(e wfunc.Expr) bool {
		l, ok := e.(*wfunc.LocalRef)
		return ok && int32(l.Idx) == sp.v
	}
	if isVar(index) {
		return wfunc.Ci(0), true
	}
	b, ok := index.(*wfunc.Binary)
	if !ok {
		return nil, false
	}
	var off wfunc.Expr
	switch {
	case b.Op == wfunc.Add && isVar(b.A):
		off = b.B
	case b.Op == wfunc.Add && isVar(b.B):
		off = b.A
	case b.Op == wfunc.Sub && isVar(b.A):
		off = wfunc.Un(wfunc.Neg, b.B)
		if k, ok := b.B.(*wfunc.Const); ok {
			off = wfunc.C(-k.V)
		}
	default:
		return nil, false
	}
	return off, spanInvariant(off, sp)
}

// spanInvariant reports whether e keeps its value through sp's loop and
// can neither fault nor touch a tape: constants and locals the loop does
// not assign, under + - * (and the negation spanOffset adds).
func spanInvariant(e wfunc.Expr, sp *spanInstr) bool {
	switch e := e.(type) {
	case *wfunc.Const:
		return true
	case *wfunc.LocalRef:
		return int32(e.Idx) != sp.v && int32(e.Idx) != sp.acc
	case *wfunc.Unary:
		return e.Op == wfunc.Neg && spanInvariant(e.X, sp)
	case *wfunc.Binary:
		return (e.Op == wfunc.Add || e.Op == wfunc.Sub || e.Op == wfunc.Mul) &&
			spanInvariant(e.A, sp) && spanInvariant(e.B, sp)
	}
	return false
}

// spanView is the storage one operand reads or writes during a span: trip
// k touches buf[(base+k)&mask].
type spanView struct {
	buf        []float64
	base, mask int
}

// run returns the contiguous stretch of the view from trip k on, at most
// to trip n: all of it, except where a ring wraps.
func (v spanView) run(k, n int) []float64 {
	i := (v.base + k) & v.mask
	return v.buf[i:min(i+n-k, len(v.buf))]
}

// span executes span instruction s if its guard holds and reports whether
// it did; if not, nothing has changed. The tape's window is fetched here,
// per instruction: any pop, push or restore in between moves it.
func (m *Machine) span(s *spanInstr, in, out wfunc.Tape) bool {
	start := m.regs[s.v]
	// NaN fails the comparisons; a fractional start would truncate to a
	// different index at every access.
	if !(start >= 0 && start < s.bound) || start != math.Trunc(start) {
		return false
	}
	from := int(start)
	switch s.kind {
	case spanMap:
		return m.mapSpan(s, in, out, from)
	case spanRows:
		iw, _ := in.(wfunc.Window)
		ow, _ := out.(wfunc.Window)
		return m.nest(s.nest, s, iw, ow, from, int(s.bound))
	}
	n := int(s.bound) - from
	var tape wfunc.Window
	var win spanView
	buffered := 0
	if s.peeks+s.pops > 0 {
		var ok bool
		if tape, ok = in.(wfunc.Window); !ok {
			return false
		}
		win.buf, win.base, win.mask, buffered = tape.Window()
	}
	// view resolves an operand to its storage, checking the first and last
	// access of the loop against it.
	view := func(o *spanOperand) (spanView, bool) {
		if o.kind == opndPop {
			return win, n <= buffered
		}
		off := o.off
		if o.slot >= 0 {
			off = m.regs[o.slot]
		}
		if !(math.Abs(off) < spanLimit) || off != math.Trunc(off) {
			return spanView{}, false
		}
		lo := from + int(off)
		switch o.kind {
		case opndPeek:
			v := win
			v.base += lo
			return v, lo >= 0 && lo+n <= buffered
		case opndField:
			if m.state == nil {
				return spanView{}, false
			}
			arr := m.state.Arrays[o.arr]
			return spanView{arr, lo, -1}, lo >= 0 && lo+n <= len(arr)
		default:
			arr := m.arrays[o.arr]
			return spanView{arr, lo, -1}, lo >= 0 && lo+n <= len(arr)
		}
	}
	switch s.kind {
	case spanDrain:
		if n > buffered {
			return false
		}
	case spanMove:
		dst, okD := view(&s.opnd[0])
		src, okS := view(&s.opnd[1])
		if !okD || !okS {
			return false
		}
		copy(dst.run(0, n), src.run(0, n))
	case spanReduce:
		a, ok := view(&s.opnd[0])
		if !ok {
			return false
		}
		acc := m.regs[s.acc]
		if s.opnd[1].kind == opndNone {
			for k := 0; k < n; {
				xs := a.run(k, n)
				for _, x := range xs {
					acc += x
				}
				k += len(xs)
			}
		} else {
			b, ok := view(&s.opnd[1])
			if !ok {
				return false
			}
			for k := 0; k < n; {
				xs, ys := a.run(k, n), b.run(k, n)
				if len(ys) < len(xs) {
					xs = xs[:len(ys)]
				}
				ys = ys[:len(xs)]
				for i, x := range xs {
					// The conversion forbids fusing the multiply into the
					// add: Go fuses x*y + z on arm64, ppc64le, s390x and
					// riscv64, and a fused multiply-add rounds once where the
					// interpreter's two EvalBinary calls round twice.
					acc += float64(x * ys[i])
				}
				k += len(xs)
			}
		}
		m.regs[s.acc] = acc
	}
	if tape != nil {
		tape.Advance(int(s.pops) * n)
	}
	m.regs[s.v] = s.bound
	return true
}
