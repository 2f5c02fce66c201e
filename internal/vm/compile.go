package vm

import (
	"fmt"
	"math"

	"streamit/internal/wfunc"
)

// Compile lowers an IL function to register code. It preserves the
// interpreter's observable semantics exactly: left-to-right evaluation,
// value-before-index assignment order, short-circuit && / || (lowered to
// jumps), per-iteration re-evaluation of loop bounds and steps, and
// identical float64 arithmetic. An error means the function uses a
// construct the compiler does not cover; callers fall back to the
// interpreter.
func Compile(f *wfunc.Func) (*Program, error) {
	c := &compiler{
		p: &Program{
			name:       f.Name,
			numLocals:  f.NumLocals,
			arraySizes: append([]int(nil), f.ArraySizes...),
		},
		constIdx: map[uint64]int{},
	}
	c.block(f.Body)
	if c.err != nil {
		return nil, fmt.Errorf("vm: compile %s: %w", f.Name, c.err)
	}
	c.layout()
	c.p.row = c.dotRow(f.Body, -1, 1)
	return c.p, nil
}

// unaryOps maps IL unary operators to dedicated opcodes; unmapped
// operators compile to opUnaryEv and share wfunc.EvalUnary with the
// interpreter.
var unaryOps = map[wfunc.UnOp]Op{
	wfunc.Neg: opNeg,
	wfunc.Not: opNot,
	wfunc.Abs: opAbs,
}

// binaryOps maps IL binary operators to dedicated opcodes. && and || are
// absent deliberately: their short-circuit evaluation is lowered to jumps.
var binaryOps = map[wfunc.BinOp]Op{
	wfunc.Add: opAdd,
	wfunc.Sub: opSub,
	wfunc.Mul: opMul,
	wfunc.Div: opDiv,
	wfunc.Eq:  opEq,
	wfunc.Ne:  opNe,
	wfunc.Lt:  opLt,
	wfunc.Le:  opLe,
	wfunc.Gt:  opGt,
	wfunc.Ge:  opGe,
}

// Registers are numbered by class while compiling, because how many
// locals (spans add hidden ones) and temporaries the frame holds is known
// only at the end: a local is its own index, temporary t is tempReg+t and
// constant k is constReg+k, until layout places them.
const (
	tempReg  = 1 << 29
	constReg = 1 << 30
	// noReg asks expr to put a value where it likes.
	noReg = -1
)

type compiler struct {
	p        *Program
	constIdx map[uint64]int
	cur, max int // live temporaries, and the most ever live
	loops    []loopCtx
	err      error
}

// loopCtx collects the forward jumps of break/continue statements in the
// innermost loop for later patching.
type loopCtx struct {
	breaks    []int
	continues []int
}

func (c *compiler) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// emit appends an instruction and returns its index (for jump patching).
func (c *compiler) emit(ins instr) int {
	c.p.code = append(c.p.code, ins)
	return len(c.p.code) - 1
}

// patch points the jump at at to the next instruction.
func (c *compiler) patch(at int) { c.p.code[at].k = int32(len(c.p.code)) }

// temp allocates the next temporary. Temporaries are a stack: a statement
// or an operator releases those its operands took by resetting c.cur, so
// an operand's value lives where an operand stack would hold it.
func (c *compiler) temp() int32 {
	c.cur++
	c.max = max(c.max, c.cur)
	return tempReg + int32(c.cur-1)
}

// dest is dst, or a fresh temporary when dst is noReg.
func (c *compiler) dest(dst int32) int32 {
	if dst == noReg {
		return c.temp()
	}
	return dst
}

// cpool interns a constant by its bits, so that -0 and +0 stay apart and
// a NaN, which is not equal to itself, is found again.
func (c *compiler) cpool(v float64) int {
	bits := math.Float64bits(v)
	if i, ok := c.constIdx[bits]; ok {
		return i
	}
	i := len(c.p.consts)
	c.p.consts = append(c.p.consts, v)
	c.constIdx[bits] = i
	return i
}

// constant is the register holding v.
func (c *compiler) constant(v float64) int32 { return constReg + int32(c.cpool(v)) }

// layout places the temporaries behind the locals and the constants behind
// the temporaries, and renumbers every register operand to match.
func (c *compiler) layout() {
	p := c.p
	p.frame = p.numLocals + c.max
	place := func(r *int32) {
		switch {
		case *r >= constReg:
			*r += int32(p.frame) - constReg
		case *r >= tempReg:
			*r += int32(p.numLocals) - tempReg
		}
	}
	for i := range p.code {
		ins := &p.code[i]
		place(&ins.d)
		place(&ins.a)
		place(&ins.b)
	}
}

func (c *compiler) block(body []wfunc.Stmt) {
	for _, s := range body {
		c.stmt(s)
		if c.err != nil {
			return
		}
	}
}

func (c *compiler) stmt(s wfunc.Stmt) {
	base := c.cur
	defer func() { c.cur = base }()
	switch s := s.(type) {
	case *wfunc.Assign:
		switch s.LHS.Kind {
		case wfunc.LVLocal:
			// The value's outermost operation writes the local itself: it
			// has read every operand by then, and expressions cannot assign,
			// so nothing else writes the local first.
			c.expr(s.X, int32(s.LHS.Idx))
		case wfunc.LVField:
			c.emit(instr{op: opStoreField, a: c.expr(s.X, noReg), k: int32(s.LHS.Idx)})
		case wfunc.LVLocalArr, wfunc.LVFieldArr:
			// The interpreter evaluates the value first, then the index of
			// an array target; keep that order for tape side effects.
			op := opStoreLocalIdx
			if s.LHS.Kind == wfunc.LVFieldArr {
				op = opStoreFieldIdx
			}
			x := c.expr(s.X, noReg)
			c.emit(instr{op: op, a: x, b: c.expr(s.LHS.Index, noReg), k: int32(s.LHS.Idx)})
		default:
			c.fail("unknown lvalue kind %d", s.LHS.Kind)
		}
	case *wfunc.PushStmt:
		c.emit(instr{op: opPushV, a: c.expr(s.X, noReg)})
	case *wfunc.PopStmt:
		c.emit(instr{op: opPopN})
	case *wfunc.If:
		jz := c.jumpUnless(s.C)
		c.block(s.Then)
		if len(s.Else) == 0 {
			c.patch(jz)
			return
		}
		jend := c.emit(instr{op: opJump})
		c.patch(jz)
		c.block(s.Else)
		c.patch(jend)
	case *wfunc.For:
		c.forLoop(s)
	case *wfunc.While:
		top := len(c.p.code)
		jz := c.jumpUnless(s.C)
		lc := c.loopBody(s.Body)
		// continue in a while loop re-tests the condition.
		for _, at := range lc.continues {
			c.p.code[at].k = int32(top)
		}
		c.emit(instr{op: opJump, k: int32(top)})
		c.patch(jz)
		for _, at := range lc.breaks {
			c.patch(at)
		}
	case *wfunc.Break:
		if len(c.loops) == 0 {
			c.fail("break outside loop")
			return
		}
		lc := &c.loops[len(c.loops)-1]
		lc.breaks = append(lc.breaks, c.emit(instr{op: opJump}))
	case *wfunc.Continue:
		if len(c.loops) == 0 {
			c.fail("continue outside loop")
			return
		}
		lc := &c.loops[len(c.loops)-1]
		lc.continues = append(lc.continues, c.emit(instr{op: opJump}))
	case *wfunc.Print:
		c.emit(instr{op: opPrint, a: c.expr(s.X, noReg)})
	case *wfunc.Send:
		// The interpreter refuses a send without a messenger before it
		// evaluates the arguments, which may pop. The arguments go to
		// consecutive temporaries, left to right.
		c.emit(instr{op: opMessenger})
		first := tempReg + int32(c.cur)
		for _, a := range s.Args {
			c.expr(a, c.temp())
		}
		c.p.sends = append(c.p.sends, sendSite{
			portal:     s.Portal,
			handler:    s.Handler,
			nargs:      len(s.Args),
			minLat:     s.MinLatency,
			maxLat:     s.MaxLatency,
			bestEffort: s.BestEffort,
		})
		c.emit(instr{op: opSend, a: first, k: int32(len(c.p.sends) - 1)})
	default:
		c.fail("unknown statement %T", s)
	}
}

// loopBody compiles a loop's body and returns its break and continue
// jumps for the caller to patch.
func (c *compiler) loopBody(body []wfunc.Stmt) loopCtx {
	c.loops = append(c.loops, loopCtx{})
	c.block(body)
	lc := c.loops[len(c.loops)-1]
	c.loops = c.loops[:len(c.loops)-1]
	return lc
}

// forLoop compiles for locals[Var] = From; locals[Var] < To; locals[Var] +=
// Step. To and Step are re-evaluated every iteration, like the
// interpreter. When both are constants or locals, reading their registers
// is that evaluation, so the loop is fused: its head runs once, assigning
// From and testing, and the step, the test and the jump back are one
// instruction.
func (c *compiler) forLoop(s *wfunc.For) {
	v := int32(s.Var)
	to, fused := c.leaf(s.To)
	step := c.constant(1)
	if s.Step != nil {
		var leaf bool
		step, leaf = c.leaf(s.Step)
		fused = fused && leaf
	}
	from, leaf := c.leaf(s.From)
	if !leaf {
		from = c.expr(s.From, v)
	}
	// A loop of the span family gets one guarded native instruction in
	// front of its ordinary code, which stays the only fault path. The
	// instruction assigns From itself.
	span := c.span(s)
	if span >= 0 {
		c.emit(instr{op: opSpan, d: v, a: from, k: int32(span)})
	}
	if !fused {
		from = c.mov(from, v)
	}
	base := c.cur
	top := len(c.p.code)
	if !fused {
		to = c.expr(s.To, noReg)
		c.cur = base
	}
	head := c.emit(instr{op: opFor, d: v, a: from, b: to})
	lc := c.loopBody(s.Body)
	for _, at := range lc.continues {
		c.patch(at)
	}
	if fused {
		c.emit(instr{op: opLoop, d: v, a: step, b: to, k: int32(head + 1)})
	} else {
		if s.Step != nil {
			step = c.expr(s.Step, noReg)
		}
		c.emit(instr{op: opAdd, d: v, a: v, b: step})
		c.emit(instr{op: opJump, k: int32(top)})
	}
	c.patch(head)
	for _, at := range lc.breaks {
		c.patch(at)
	}
	if span >= 0 {
		c.p.spans[span].exit = int32(len(c.p.code))
	}
}

// leaf returns the register of a constant or a local, the expressions that
// are their own register.
func (c *compiler) leaf(e wfunc.Expr) (int32, bool) {
	switch e := e.(type) {
	case *wfunc.Const:
		return c.constant(e.V), true
	case *wfunc.LocalRef:
		return int32(e.Idx), true
	}
	return 0, false
}

// jumpUnless emits e and a jump taken when it is zero, and returns the
// jump for the caller to patch. e's temporary is free again behind it.
func (c *compiler) jumpUnless(e wfunc.Expr) int {
	base := c.cur
	at := c.emit(instr{op: opJumpIfZero, a: c.expr(e, noReg)})
	c.cur = base
	return at
}

// expr compiles e and returns the register that holds its value. A
// constant or a local is its own register and costs no instruction unless
// dst asks for a copy. Anything else is computed by one last instruction
// into dst, or, when dst is noReg, into the next temporary, which stays
// live until the caller resets c.cur. Operands are evaluated left to
// right into temporaries above it.
func (c *compiler) expr(e wfunc.Expr, dst int32) int32 {
	if r, ok := c.leaf(e); ok {
		return c.mov(r, dst)
	}
	base := c.cur
	var ins instr
	switch e := e.(type) {
	case *wfunc.FieldRef:
		ins = instr{op: opLoadField, k: int32(e.Idx)}
	case *wfunc.LocalIndex:
		ins = instr{op: opLoadLocalIdx, a: c.expr(e.Index, noReg), k: int32(e.Arr)}
	case *wfunc.FieldIndex:
		ins = instr{op: opLoadFieldIdx, a: c.expr(e.Index, noReg), k: int32(e.Arr)}
	case *wfunc.Peek:
		ins = instr{op: opPeek, a: c.expr(e.Index, noReg)}
	case *wfunc.PopExpr:
		ins = instr{op: opPopV}
	case *wfunc.Unary:
		ins = instr{op: opUnaryEv, a: c.expr(e.X, noReg), k: int32(e.Op)}
		if op, ok := unaryOps[e.Op]; ok {
			ins.op = op
		}
	case *wfunc.Binary:
		if e.Op == wfunc.And || e.Op == wfunc.Or {
			return c.logic(e, dst)
		}
		if l, ok := e.A.(*wfunc.LocalRef); ok && dst == int32(l.Idx) && e.Op == wfunc.Add {
			if m, ok := e.B.(*wfunc.Binary); ok && m.Op == wfunc.Mul {
				// d = d + x*y, an accumulation, is one instruction.
				x := c.expr(m.A, noReg)
				ins = instr{op: opMulAcc, a: x, b: c.expr(m.B, noReg)}
				break
			}
		}
		a := c.expr(e.A, noReg)
		ins = instr{op: opBinaryEv, a: a, b: c.expr(e.B, noReg), k: int32(e.Op)}
		if op, ok := binaryOps[e.Op]; ok {
			ins.op = op
		}
	case *wfunc.Cond:
		jz := c.jumpUnless(e.C)
		d := c.dest(dst)
		c.expr(e.A, d)
		jend := c.emit(instr{op: opJump})
		c.patch(jz)
		c.expr(e.B, d)
		c.patch(jend)
		return d
	default:
		c.fail("unknown expression %T", e)
		return 0
	}
	c.cur = base
	ins.d = c.dest(dst)
	c.emit(ins)
	return ins.d
}

// mov returns leaf register r, copied into dst when dst asks for another.
func (c *compiler) mov(r, dst int32) int32 {
	if dst == noReg || dst == r {
		return r
	}
	c.emit(instr{op: opMov, d: dst, a: r})
	return dst
}

// logic compiles a && b as a == 0 ? 0 : bool(b), and a || b as a != 0 ? 1
// : bool(b); b is not evaluated when a decides.
func (c *compiler) logic(e *wfunc.Binary, dst int32) int32 {
	jz := c.jumpUnless(e.A)
	d := c.dest(dst)
	live := c.cur
	decided := c.constant(0)
	if e.Op == wfunc.Or {
		decided = c.constant(1)
		c.mov(decided, d)
		jend := c.emit(instr{op: opJump})
		c.patch(jz)
		c.emit(instr{op: opBool, d: d, a: c.expr(e.B, noReg)})
		c.patch(jend)
	} else {
		c.emit(instr{op: opBool, d: d, a: c.expr(e.B, noReg)})
		jend := c.emit(instr{op: opJump})
		c.patch(jz)
		c.mov(decided, d)
		c.patch(jend)
	}
	c.cur = live
	return d
}
