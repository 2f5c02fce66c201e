package vm

import (
	"fmt"
	"math"

	"streamit/internal/wfunc"
)

// Compile lowers an IL function to bytecode. It preserves the
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
		constIdx: map[float64]int{},
	}
	c.block(f.Body)
	if c.err != nil {
		return nil, fmt.Errorf("vm: compile %s: %w", f.Name, c.err)
	}
	return c.p, nil
}

// unaryOps maps IL unary operators to dedicated opcodes; unmapped
// operators compile to opUnaryEv and share wfunc.EvalUnary with the
// interpreter.
var unaryOps = map[wfunc.UnOp]Op{
	wfunc.Neg:   opNeg,
	wfunc.Not:   opNot,
	wfunc.Trunc: opTrunc,
	wfunc.Abs:   opAbs,
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

type compiler struct {
	p        *Program
	constIdx map[float64]int
	cur, max int // operand-stack depth tracking for frame preallocation
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
func (c *compiler) emit(op Op, a int) int {
	c.p.code = append(c.p.code, instr{op: op, a: int32(a)})
	return len(c.p.code) - 1
}

// emit2 appends a two-operand (fused) instruction.
func (c *compiler) emit2(op Op, a, b int) int {
	c.p.code = append(c.p.code, instr{op: op, a: int32(a), b: int32(b)})
	return len(c.p.code) - 1
}

func (c *compiler) patch(at int) { c.p.code[at].a = int32(len(c.p.code)) }

func (c *compiler) push(n int) {
	c.cur += n
	if c.cur > c.max {
		c.max = c.cur
	}
	if c.max > c.p.maxStack {
		c.p.maxStack = c.max
	}
}

func (c *compiler) pop(n int) { c.cur -= n }

// cpool interns a constant. NaN needs special casing because it is not
// equal to itself as a map key.
func (c *compiler) cpool(v float64) int {
	if math.IsNaN(v) {
		for i, k := range c.p.consts {
			if math.IsNaN(k) {
				return i
			}
		}
		c.p.consts = append(c.p.consts, v)
		return len(c.p.consts) - 1
	}
	if i, ok := c.constIdx[v]; ok {
		return i
	}
	i := len(c.p.consts)
	c.p.consts = append(c.p.consts, v)
	c.constIdx[v] = i
	return i
}

// fits16 reports whether i can be packed into half of a fused
// instruction's second operand.
func fits16(i int) bool { return i >= 0 && i < 1<<16 }

func (c *compiler) block(body []wfunc.Stmt) {
	for _, s := range body {
		c.stmt(s)
		if c.err != nil {
			return
		}
	}
}

func (c *compiler) stmt(s wfunc.Stmt) {
	switch s := s.(type) {
	case *wfunc.Assign:
		// v = v + E compiles to E followed by a fused increment. Reading v
		// after E instead of before is equivalent: expressions cannot
		// assign, so E never changes v, and the addends reach the add in
		// the same left/right positions.
		if s.LHS.Kind == wfunc.LVLocal {
			if b, ok := s.X.(*wfunc.Binary); ok && b.Op == wfunc.Add {
				if l, ok := b.A.(*wfunc.LocalRef); ok && l.Idx == s.LHS.Idx {
					c.expr(b.B)
					c.emit(opIncLocal, s.LHS.Idx)
					c.pop(1)
					return
				}
			}
		}
		// The interpreter evaluates the value first, then the index of an
		// array target; keep that order for tape side effects.
		c.expr(s.X)
		switch s.LHS.Kind {
		case wfunc.LVLocal:
			c.emit(opStoreLocal, s.LHS.Idx)
			c.pop(1)
		case wfunc.LVField:
			c.emit(opStoreField, s.LHS.Idx)
			c.pop(1)
		case wfunc.LVLocalArr:
			c.expr(s.LHS.Index)
			c.emit(opStoreLocalIdx, s.LHS.Idx)
			c.pop(2)
		case wfunc.LVFieldArr:
			c.expr(s.LHS.Index)
			c.emit(opStoreFieldIdx, s.LHS.Idx)
			c.pop(2)
		default:
			c.fail("unknown lvalue kind %d", s.LHS.Kind)
		}
	case *wfunc.PushStmt:
		c.expr(s.X)
		c.emit(opPushV, 0)
		c.pop(1)
	case *wfunc.PopStmt:
		c.emit(opPopN, 0)
	case *wfunc.If:
		c.expr(s.C)
		jz := c.emit(opJumpIfZero, 0)
		c.pop(1)
		c.block(s.Then)
		if len(s.Else) == 0 {
			c.patch(jz)
			return
		}
		jend := c.emit(opJump, 0)
		c.patch(jz)
		c.block(s.Else)
		c.patch(jend)
	case *wfunc.For:
		// for locals[Var] = From; locals[Var] < To; locals[Var] += Step.
		// To and Step are re-evaluated every iteration, like the
		// interpreter. Loading Var before To is safe: expressions cannot
		// assign, so To's evaluation never changes the loop variable.
		c.expr(s.From)
		c.emit(opStoreLocal, s.Var)
		c.pop(1)
		// A loop of the span family gets one guarded native instruction in
		// front of its ordinary bytecode, which stays the only fault path.
		span := c.span(s)
		top := len(c.p.code)
		// Constant bounds (the common counted loop after folding) fuse the
		// load/compare/branch head into one instruction.
		head := -1
		if to, ok := s.To.(*wfunc.Const); ok && fits16(s.Var) {
			if ci := c.cpool(to.V); fits16(ci) {
				head = c.emit2(opJGeLC, 0, s.Var|ci<<16)
			}
		}
		jz := head
		if head < 0 {
			c.emit(opLoadLocal, s.Var)
			c.push(1)
			c.expr(s.To)
			c.emit(opLt, 0)
			c.pop(1)
			jz = c.emit(opJumpIfZero, 0)
			c.pop(1)
		}
		c.loops = append(c.loops, loopCtx{})
		c.block(s.Body)
		lc := c.loops[len(c.loops)-1]
		c.loops = c.loops[:len(c.loops)-1]
		for _, at := range lc.continues {
			c.patch(at)
		}
		step, constStep := 1.0, s.Step == nil
		if k, ok := s.Step.(*wfunc.Const); ok {
			step, constStep = k.V, true
		}
		switch {
		case constStep && head >= 0:
			// Tested at the bottom: step, compare and jump back to the body
			// in one dispatch. The head above only guards entry.
			c.emit2(opLoopLC, head+1, c.cpool(step))
		case constStep:
			c.emit2(opIncLocalC, s.Var, c.cpool(step))
			c.emit(opJump, top)
		default:
			c.expr(s.Step)
			c.emit(opIncLocal, s.Var)
			c.pop(1)
			c.emit(opJump, top)
		}
		c.patch(jz)
		for _, at := range lc.breaks {
			c.patch(at)
		}
		if span >= 0 {
			c.p.code[span].b = int32(len(c.p.code))
		}
	case *wfunc.While:
		top := len(c.p.code)
		c.expr(s.C)
		jz := c.emit(opJumpIfZero, 0)
		c.pop(1)
		c.loops = append(c.loops, loopCtx{})
		c.block(s.Body)
		lc := c.loops[len(c.loops)-1]
		c.loops = c.loops[:len(c.loops)-1]
		// continue in a while loop re-tests the condition.
		for _, at := range lc.continues {
			c.p.code[at].a = int32(top)
		}
		c.emit(opJump, top)
		c.patch(jz)
		for _, at := range lc.breaks {
			c.patch(at)
		}
	case *wfunc.Break:
		if len(c.loops) == 0 {
			c.fail("break outside loop")
			return
		}
		at := c.emit(opJump, 0)
		lc := &c.loops[len(c.loops)-1]
		lc.breaks = append(lc.breaks, at)
	case *wfunc.Continue:
		if len(c.loops) == 0 {
			c.fail("continue outside loop")
			return
		}
		at := c.emit(opJump, 0)
		lc := &c.loops[len(c.loops)-1]
		lc.continues = append(lc.continues, at)
	case *wfunc.Print:
		c.expr(s.X)
		c.emit(opPrint, 0)
		c.pop(1)
	case *wfunc.Send:
		for _, a := range s.Args {
			c.expr(a)
		}
		c.p.sends = append(c.p.sends, sendSite{
			portal:     s.Portal,
			handler:    s.Handler,
			nargs:      len(s.Args),
			minLat:     s.MinLatency,
			maxLat:     s.MaxLatency,
			bestEffort: s.BestEffort,
		})
		c.emit(opSend, len(c.p.sends)-1)
		c.pop(len(s.Args))
	default:
		c.fail("unknown statement %T", s)
	}
}

func (c *compiler) expr(e wfunc.Expr) {
	switch e := e.(type) {
	case *wfunc.Const:
		c.emit(opConst, c.cpool(e.V))
		c.push(1)
	case *wfunc.LocalRef:
		c.emit(opLoadLocal, e.Idx)
		c.push(1)
	case *wfunc.FieldRef:
		c.emit(opLoadField, e.Idx)
		c.push(1)
	case *wfunc.LocalIndex:
		if l, ok := e.Index.(*wfunc.LocalRef); ok {
			c.emit2(opLoadLocalIdxL, e.Arr, l.Idx)
			c.push(1)
			return
		}
		c.expr(e.Index)
		c.emit(opLoadLocalIdx, e.Arr)
	case *wfunc.FieldIndex:
		if l, ok := e.Index.(*wfunc.LocalRef); ok {
			c.emit2(opLoadFieldIdxL, e.Arr, l.Idx)
			c.push(1)
			return
		}
		c.expr(e.Index)
		c.emit(opLoadFieldIdx, e.Arr)
	case *wfunc.Peek:
		if l, ok := e.Index.(*wfunc.LocalRef); ok {
			c.emit2(opPeekLocal, l.Idx, 0)
			c.push(1)
			return
		}
		c.expr(e.Index)
		c.emit(opPeek, 0)
	case *wfunc.PopExpr:
		c.emit(opPopV, 0)
		c.push(1)
	case *wfunc.Unary:
		c.expr(e.X)
		if op, ok := unaryOps[e.Op]; ok {
			c.emit(op, 0)
		} else {
			c.emit(opUnaryEv, int(e.Op))
		}
	case *wfunc.Binary:
		switch e.Op {
		case wfunc.And:
			// a == 0 ? 0 : bool(b)  — b unevaluated when a is zero.
			c.expr(e.A)
			jz := c.emit(opJumpIfZero, 0)
			c.pop(1)
			c.expr(e.B)
			c.emit(opBool, 0)
			jend := c.emit(opJump, 0)
			c.pop(1)
			c.patch(jz)
			c.emit(opConst, c.cpool(0))
			c.push(1)
			c.patch(jend)
		case wfunc.Or:
			// a != 0 ? 1 : bool(b)  — b unevaluated when a is nonzero.
			c.expr(e.A)
			jz := c.emit(opJumpIfZero, 0)
			c.pop(1)
			c.emit(opConst, c.cpool(1))
			c.push(1)
			jend := c.emit(opJump, 0)
			c.pop(1)
			c.patch(jz)
			c.expr(e.B)
			c.emit(opBool, 0)
			c.patch(jend)
		default:
			c.expr(e.A)
			c.expr(e.B)
			if op, ok := binaryOps[e.Op]; ok {
				c.emit(op, 0)
			} else {
				c.emit(opBinaryEv, int(e.Op))
			}
			c.pop(1)
		}
	case *wfunc.Cond:
		c.expr(e.C)
		jz := c.emit(opJumpIfZero, 0)
		c.pop(1)
		c.expr(e.A)
		jend := c.emit(opJump, 0)
		c.pop(1)
		c.patch(jz)
		c.expr(e.B)
		c.patch(jend)
	default:
		c.fail("unknown expression %T", e)
	}
}
