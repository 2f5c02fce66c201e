package vm

import (
	"math"
	"slices"

	"streamit/internal/wfunc"
)

// Map spans: write spans. A counted loop whose body is push statements,
// assignments to body locals and stores to local arrays, over pure
// expressions that do not pop,
//
//	for i = 0; i < 32; i++ { push(peek(i) ^ peek(i + 32)) }
//	for i = 0; i < 32; i++ { v = peek(4*i)*8 + ...; v = t[v]; push(v / 8 % 2); ... }
//	for i = 0; i < 32; i++ { v = a[4*i]*8 + ...; v = t[v]; b[4*i] = v / 8 % 2; b[4*i+1] = ... }
//
// compiles to an expression program over lane registers: each register
// holds one value for each of mapLanes consecutive trips, and each step
// computes a whole register, so one dispatch serves mapLanes trips. The
// program has three parts: entry steps broadcast what the loop cannot
// change (constants, fields, locals it does not assign) once; trip steps
// run once per block of trips; exit steps leave each body local at its
// last trip's value. Registers are allocated by liveness at compile time:
// a temporary is freed by the step that consumes it, a body local's
// register by the local's next assignment.
//
// Pushes go straight into a reservation on the out tape (wfunc.Window's
// Reserve), committed only once every trip has run. Every read and store
// is checked where it happens — a peek against the window, an array
// element against the array — and a check that fails, like a fractional
// or NaN start or a tape without a window, abandons the span: the ring,
// the loop variable and the locals are as they were, and the generic loop
// behind the instruction runs the loop from the start and raises the
// interpreter's fault. Both sides of ?:, && and || are evaluated, which
// the purity of the body makes invisible except when the side the
// interpreter skips would fault; then the span is abandoned too.
//
// Stores land in place, statement by statement over a block of trips, and
// an abandoned span leaves the ones it made behind. The compiler admits
// only bodies for which neither can show:
//
//   - no expression of the body reads an array the body stores to, so a
//     trip computes the same values at the same indices whatever was
//     stored before it, and a generic loop that reruns the loop from the
//     start remakes every store the span made, with the same value;
//   - an array stored by more than one statement is indexed c·v + k, with
//     one integer c and distinct integers k spanning less than |c|, so no
//     two of the loop's stores hit one cell (one statement's stores land in
//     trip order, as the generic loop's do);
//   - local arrays only: a firing starts them at zero, so what a faulted
//     firing left in them is never read, while a field array outlives it.
//
// Arithmetic rounds as the generic code does: + - * / natively (a product
// is written float64(x*y), so no multiply fuses into an add), every other
// operator through wfunc.EvalUnary and wfunc.EvalBinary.

const (
	// mapLanes is the number of trips one pass of the trip steps covers.
	mapLanes = 16
	// mapRegs caps the lane registers of one map span; a body needing
	// more stays generic.
	mapRegs = 16
	// mapMaxItems caps what one map span reserves on the out tape, so a
	// loop with an absurd bound that the generic loop would fault early in
	// does not allocate for all of it first.
	mapMaxItems = 1 << 16
)

// lanes is one lane register: trip k of a block in lane k.
type lanes [mapLanes]float64

type mapOp uint8

const (
	// Entry steps: dst holds arg's value in every lane.
	mConst mapOp = iota // consts[arg]
	mLocal              // locals[arg]
	mField              // state.Scalars[arg]

	// Trip steps.
	mVar      // dst = the loop variable
	mPeek     // dst = in.Peek(int(a))
	mLocalIdx // dst = arrays[arg][int(a)]
	mFieldIdx // dst = state.Arrays[arg][int(a)]
	mCopy     // dst = a
	mAdd      // dst = a + b
	mSub      // dst = a - b
	mMul      // dst = a * b
	mDiv      // dst = a / b
	mUnary    // dst = wfunc.EvalUnary(arg, a)
	mBinary   // dst = wfunc.EvalBinary(arg, a, b)
	mCond     // dst = a != 0 ? b : register arg
	mPush     // push a as the trip's push number arg
	mStore    // arrays[arg][int(b)] = a

	// Exit steps.
	mSetLocal // locals[arg] = a, its last trip's lane
)

// mapStep is one step of a map span's program: registers dst, a, b and an
// operand arg, as the op defines them.
type mapStep struct {
	op        mapOp
	dst, a, b uint8
	arg       int32
}

// mapProg is a map span's program: steps[:entry] run on entry,
// steps[entry:exit] once per block of trips, steps[exit:] after the last.
type mapProg struct {
	steps       []mapStep
	entry, exit int
	pushes      int // per trip
}

// mapCompiler holds what compiling one map body needs; none of it outlives
// the compilation. Bodies are a few statements, so lookups are scans.
type mapCompiler struct {
	c      *compiler
	v      int
	locals []bodyLocal
	varReg int       // the loop variable's register, -1 until read
	steps  []mapStep // the program so far
	entry  int       // steps[:entry] are its entry steps
	used   uint32    // allocated registers
	stored []int     // the local arrays the body stores to, once per store
	peeks  bool
	ok     bool
}

// bodyLocal is a local the body assigns, and its register in the trip so
// far: -1 until the trip assigns it.
type bodyLocal struct {
	idx int
	reg int16
}

// mapSpan compiles body into sp as a map span and reports whether it is
// one.
func (c *compiler) mapSpan(body []wfunc.Stmt, sp *spanInstr) bool {
	mc := mapCompiler{c: c, v: int(sp.v), varReg: -1, ok: true}
	pushes := 0
	for _, st := range body {
		switch st := st.(type) {
		case *wfunc.PushStmt:
			pushes++
		case *wfunc.Assign:
			switch {
			case st.LHS.Kind == wfunc.LVLocalArr:
				mc.stored = append(mc.stored, st.LHS.Idx)
			case st.LHS.Kind != wfunc.LVLocal || st.LHS.Idx == mc.v:
				return false
			case mc.local(st.LHS.Idx) == nil:
				mc.locals = append(mc.locals, bodyLocal{st.LHS.Idx, -1})
			}
		default:
			return false
		}
	}
	if pushes+len(mc.stored) == 0 || !mc.disjoint(body, max(sp.bound, 1)) {
		return false
	}
	// Entry registers first, so that no trip step can have written one
	// before a later block reads it.
	mc.steps = make([]mapStep, 0, 16)
	for _, st := range body {
		switch st := st.(type) {
		case *wfunc.PushStmt:
			mc.leaves(st.X)
		case *wfunc.Assign:
			mc.leaves(st.X)
			if st.LHS.Index != nil {
				mc.leaves(st.LHS.Index)
			}
		}
	}
	if mc.varReg >= 0 {
		mc.steps = append(mc.steps, mapStep{op: mVar, dst: uint8(mc.varReg)})
	}
	pushes = 0
	for _, st := range body {
		switch st := st.(type) {
		case *wfunc.PushStmt:
			r, temp := mc.expr(st.X)
			mc.steps = append(mc.steps, mapStep{op: mPush, a: r, arg: int32(pushes)})
			mc.release(r, temp)
			pushes++
		case *wfunc.Assign:
			r, temp := mc.expr(st.X)
			if st.LHS.Kind == wfunc.LVLocalArr {
				ix, ixTemp := mc.expr(st.LHS.Index)
				mc.steps = append(mc.steps, mapStep{op: mStore, a: r, b: ix, arg: int32(st.LHS.Idx)})
				mc.release(r, temp)
				mc.release(ix, ixTemp)
				continue
			}
			if !temp {
				d := mc.alloc()
				mc.steps = append(mc.steps, mapStep{op: mCopy, dst: d, a: r})
				r = d
			}
			l := mc.local(st.LHS.Idx)
			if l.reg >= 0 {
				mc.release(uint8(l.reg), true)
			}
			l.reg = int16(r)
		}
	}
	if !mc.ok {
		return false
	}
	mp := &mapProg{entry: mc.entry, exit: len(mc.steps), pushes: pushes}
	for _, l := range mc.locals {
		mc.steps = append(mc.steps, mapStep{op: mSetLocal, a: uint8(l.reg), arg: int32(l.idx)})
	}
	mp.steps = slices.Clip(mc.steps)
	sp.kind, sp.mapped = spanMap, mp
	if mc.peeks {
		sp.peeks = 1
	}
	return true
}

// disjoint reports whether the body's stores may land in any order (see
// the header): no expression reads a stored array — leaves checks that —
// and the stores to one array from several statements hit distinct cells.
// Their indices are affine in v, c·v + k with c ≠ 0, over the loop's trips
// below bound: an index in an array's range then came out of exact
// arithmetic, so distinct pairs (c, k) with one c and k spanning less than
// |c| hit distinct cells.
func (mc *mapCompiler) disjoint(body []wfunc.Stmt, bound float64) bool {
	for i, arr := range mc.stored {
		if slices.Index(mc.stored, arr) < i || !slices.Contains(mc.stored[i+1:], arr) {
			continue // checked at its first store, or one statement's stores, which land in trip order
		}
		var c float64
		var ks []float64
		for _, st := range body {
			if st, ok := st.(*wfunc.Assign); ok && st.LHS.Kind == wfunc.LVLocalArr && st.LHS.Idx == arr {
				sc, k, ok := affine(st.LHS.Index, int32(mc.v), bound)
				if !ok || sc == 0 || len(ks) > 0 && sc != c {
					return false
				}
				c, ks = sc, append(ks, k)
			}
		}
		slices.Sort(ks)
		if ks[len(ks)-1]-ks[0] >= math.Abs(c) || len(slices.Compact(ks)) < len(ks) {
			return false
		}
	}
	return true
}

// local returns the body local l, nil if the body does not assign it.
func (mc *mapCompiler) local(l int) *bodyLocal {
	for i := range mc.locals {
		if mc.locals[i].idx == l {
			return &mc.locals[i]
		}
	}
	return nil
}

// pin gives {op, arg} an entry register unless it has one.
func (mc *mapCompiler) pin(op mapOp, arg int) {
	if mc.pinned(op, arg) < 0 {
		mc.steps = append(mc.steps, mapStep{op: op, dst: mc.alloc(), arg: int32(arg)})
		mc.entry = len(mc.steps)
	}
}

// pinned returns the entry register holding {op, arg}, -1 if there is none.
func (mc *mapCompiler) pinned(op mapOp, arg int) int {
	for _, st := range mc.steps[:mc.entry] {
		if st.op == op && st.arg == int32(arg) {
			return int(st.dst)
		}
	}
	return -1
}

// alloc takes the lowest free register.
func (mc *mapCompiler) alloc() uint8 {
	for r := 0; r < mapRegs; r++ {
		if mc.used&(1<<r) == 0 {
			mc.used |= 1 << r
			return uint8(r)
		}
	}
	mc.ok = false
	return 0
}

// release frees r if it holds a temporary.
func (mc *mapCompiler) release(r uint8, temp bool) {
	if temp {
		mc.used &^= 1 << r
	}
}

// leaves gives every leaf of e that the loop cannot change an entry
// register, and the loop variable its register; it rejects a pop and a
// read of a stored array.
func (mc *mapCompiler) leaves(e wfunc.Expr) {
	switch e := e.(type) {
	case *wfunc.Const:
		mc.pin(mConst, mc.c.cpool(e.V))
	case *wfunc.FieldRef:
		mc.pin(mField, e.Idx)
	case *wfunc.LocalRef:
		switch {
		case e.Idx == mc.v:
			if mc.varReg < 0 {
				mc.varReg = int(mc.alloc())
			}
		case mc.local(e.Idx) == nil:
			mc.pin(mLocal, e.Idx)
		}
	case *wfunc.Peek:
		mc.leaves(e.Index)
	case *wfunc.LocalIndex:
		if slices.Contains(mc.stored, e.Arr) {
			mc.ok = false // a block's stores may already have overwritten it
		}
		mc.leaves(e.Index)
	case *wfunc.FieldIndex:
		mc.leaves(e.Index)
	case *wfunc.Unary:
		mc.leaves(e.X)
	case *wfunc.Binary:
		mc.leaves(e.A)
		mc.leaves(e.B)
	case *wfunc.Cond:
		mc.leaves(e.C)
		mc.leaves(e.A)
		mc.leaves(e.B)
	default:
		mc.ok = false
	}
}

// nativeOps are the binary operators a map span computes inline.
var nativeOps = map[wfunc.BinOp]mapOp{wfunc.Add: mAdd, wfunc.Sub: mSub, wfunc.Mul: mMul, wfunc.Div: mDiv}

// expr emits the trip steps computing e and returns its register, and
// whether that register is a temporary the caller must release.
func (mc *mapCompiler) expr(e wfunc.Expr) (uint8, bool) {
	switch e := e.(type) {
	case *wfunc.Const:
		return uint8(mc.pinned(mConst, mc.c.cpool(e.V))), false
	case *wfunc.FieldRef:
		return uint8(mc.pinned(mField, e.Idx)), false
	case *wfunc.LocalRef:
		if e.Idx == mc.v {
			return uint8(mc.varReg), false
		}
		l := mc.local(e.Idx)
		if l == nil {
			return uint8(mc.pinned(mLocal, e.Idx)), false
		}
		if l.reg < 0 {
			mc.ok = false // read before this trip assigns it: loop-carried
			return 0, false
		}
		return uint8(l.reg), false
	case *wfunc.Peek:
		mc.peeks = true
		return mc.step(mPeek, 0, e.Index, nil, nil)
	case *wfunc.LocalIndex:
		return mc.step(mLocalIdx, e.Arr, e.Index, nil, nil)
	case *wfunc.FieldIndex:
		return mc.step(mFieldIdx, e.Arr, e.Index, nil, nil)
	case *wfunc.Unary:
		return mc.step(mUnary, int(e.Op), e.X, nil, nil)
	case *wfunc.Binary:
		if op, ok := nativeOps[e.Op]; ok {
			return mc.step(op, 0, e.A, e.B, nil)
		}
		return mc.step(mBinary, int(e.Op), e.A, e.B, nil)
	case *wfunc.Cond:
		return mc.step(mCond, 0, e.C, e.A, e.B)
	}
	mc.ok = false
	return 0, false
}

// step emits op over the registers of x, y and (for mCond, in arg) z into
// a fresh temporary, which may be one of theirs: every step reads a lane
// before it writes it.
func (mc *mapCompiler) step(op mapOp, arg int, x, y, z wfunc.Expr) (uint8, bool) {
	var regs [3]uint8
	var temps [3]bool
	for i, e := range [3]wfunc.Expr{x, y, z} {
		if e != nil {
			regs[i], temps[i] = mc.expr(e)
		}
	}
	for i := range regs {
		mc.release(regs[i], temps[i])
	}
	if z != nil {
		arg = int(regs[2])
	}
	d := mc.alloc()
	mc.steps = append(mc.steps, mapStep{op: op, dst: d, a: regs[0], b: regs[1], arg: int32(arg)})
	return d, true
}

// mapSpan runs map span s over in and out from trip from if every trip
// succeeds and reports whether it did; if not, nothing has changed.
func (m *Machine) mapSpan(s *spanInstr, in, out wfunc.Tape, from int) bool {
	mp := s.mapped
	n := int(s.bound) - from
	if n*mp.pushes > mapMaxItems {
		return false
	}
	ow, _ := out.(wfunc.Window)
	iw, _ := in.(wfunc.Window)
	if ow == nil && mp.pushes > 0 || iw == nil && s.peeks > 0 {
		return false
	}
	// Reserve before fetching the read window: a reservation may grow a
	// ring, which moves its storage.
	var obuf []float64
	obase, omask := 0, 0
	if ow != nil {
		obuf, obase, omask = ow.Reserve(n * mp.pushes)
	}
	var ibuf []float64
	ibase, imask, buffered := 0, 0, 0
	if iw != nil {
		ibuf, ibase, imask, buffered = iw.Window()
	}
	var fieldArrs [][]float64
	if m.state != nil {
		fieldArrs = m.state.Arrays
	}
	// The registers live on the stack: a Machine per filter instance would
	// otherwise carry them between firings for nothing.
	var regs [mapRegs]lanes
	for _, st := range mp.steps[:mp.entry] {
		var x float64
		switch st.op {
		case mConst:
			x = m.prog.consts[st.arg]
		case mLocal:
			x = m.regs[st.arg]
		case mField:
			if m.state == nil {
				return false
			}
			x = m.state.Scalars[st.arg]
		}
		d := &regs[st.dst]
		for i := range d {
			d[i] = x
		}
	}
	trip := mp.steps[mp.entry:mp.exit]
	for k0 := 0; k0 < n; k0 += mapLanes {
		w := min(mapLanes, n-k0)
		for _, st := range trip {
			d, a := regs[st.dst][:w], regs[st.a][:w]
			switch st.op {
			case mVar:
				for i := range d {
					d[i] = float64(from + k0 + i)
				}
			case mPeek:
				for i, x := range a {
					if !(x >= 0 && x < float64(buffered)) {
						return false
					}
					d[i] = ibuf[(ibase+int(x))&imask]
				}
			case mLocalIdx:
				if !gather(d, a, m.arrays[st.arg]) {
					return false
				}
			case mFieldIdx:
				if fieldArrs == nil || !gather(d, a, fieldArrs[st.arg]) {
					return false
				}
			case mCopy:
				copy(d, a)
			case mAdd:
				b := regs[st.b][:w]
				for i, x := range a {
					d[i] = x + b[i]
				}
			case mSub:
				b := regs[st.b][:w]
				for i, x := range a {
					d[i] = x - b[i]
				}
			case mMul:
				b := regs[st.b][:w]
				for i, x := range a {
					d[i] = float64(x * b[i])
				}
			case mDiv:
				b := regs[st.b][:w]
				for i, x := range a {
					d[i] = x / b[i]
				}
			case mUnary:
				op := wfunc.UnOp(st.arg)
				for i, x := range a {
					d[i] = wfunc.EvalUnary(op, x)
				}
			case mBinary:
				op, b := wfunc.BinOp(st.arg), regs[st.b][:w]
				for i, x := range a {
					d[i] = wfunc.EvalBinary(op, x, b[i])
				}
			case mCond:
				b, c := regs[st.b][:w], regs[st.arg][:w]
				for i, x := range a {
					if x != 0 {
						d[i] = b[i]
					} else {
						d[i] = c[i]
					}
				}
			case mPush:
				at := obase + k0*mp.pushes + int(st.arg)
				for i, x := range a {
					obuf[(at+i*mp.pushes)&omask] = x
				}
			case mStore:
				if !scatter(m.arrays[st.arg], regs[st.b][:w], a) {
					return false
				}
			}
		}
	}
	if ow != nil {
		ow.Commit(n * mp.pushes)
	}
	last := (n - 1) % mapLanes
	for _, st := range mp.steps[mp.exit:] {
		m.regs[st.arg] = regs[st.a][last]
	}
	m.regs[s.v] = s.bound
	return true
}

// gather sets d[i] = arr[int(ix[i])] if every index is in range.
func gather(d, ix, arr []float64) bool {
	for i, x := range ix {
		if !(x >= 0 && x < float64(len(arr))) {
			return false
		}
		d[i] = arr[int(x)]
	}
	return true
}

// scatter sets arr[int(ix[i])] = xs[i], in order, while the index is in
// range, and reports whether every one was.
func scatter(arr, ix, xs []float64) bool {
	for i, x := range ix {
		if !(x >= 0 && x < float64(len(arr))) {
			return false
		}
		arr[int(x)] = xs[i]
	}
	return true
}
