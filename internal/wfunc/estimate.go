package wfunc

// Cost is a static execution-cost estimate for one invocation of a
// function, in the style of the StreamIt work estimator: abstract cycles on
// a single-issue in-order core, plus the number of floating-point
// operations (for MFLOPS accounting).
type Cost struct {
	Cycles int64
	Flops  int64
}

// Add accumulates other into c.
func (c *Cost) Add(other Cost) {
	c.Cycles += other.Cycles
	c.Flops += other.Flops
}

func (c Cost) scale(n int64) Cost {
	return Cost{Cycles: c.Cycles * n, Flops: c.Flops * n}
}

// Per-operation cycle costs. These follow the spirit of the StreamIt work
// estimator for the Raw tile processor: single-cycle ALU ops, pipelined
// FPU multiplies, slow divides, and library-call costs for transcendental
// functions. Absolute values only matter relative to each other.
const (
	costALU      = 1  // add/sub/compare/logic/bit
	costMul      = 2  //
	costDiv      = 12 //
	costMath     = 30 // trig/exp/log/sqrt via software libm
	costPow      = 45
	costTapeOp   = 3 // push/pop/peek touch the channel buffer
	costArrayRef = 2 // address arithmetic + load/store
	costVarRef   = 1
	costAssign   = 1
	costBranch   = 2
	costLoopIter = 2 // induction update + backwards branch
	costSend     = 20
	// DefaultTrip is assumed for loops whose bounds are not statically
	// constant.
	DefaultTrip = 8
	// flopsMath approximates the FP work inside a software libm call.
	flopsMath = 20
)

// EstimateKernel returns the cost of one work-function execution of k.
func EstimateKernel(k *Kernel) Cost {
	return EstimateFunc(k.Work)
}

// EstimateFunc returns the static cost estimate for one invocation of f.
func EstimateFunc(f *Func) Cost {
	if f == nil {
		return Cost{}
	}
	return estimateBlock(f.Body)
}

func estimateBlock(body []Stmt) Cost {
	var c Cost
	for _, s := range body {
		c.Add(estimateStmt(s))
	}
	return c
}

func estimateStmt(s Stmt) Cost {
	switch s := s.(type) {
	case *Assign:
		c := estimateExpr(s.X)
		c.Cycles += costAssign
		if s.LHS.Kind == LVLocalArr || s.LHS.Kind == LVFieldArr {
			c.Cycles += costArrayRef
			c.Add(estimateExpr(s.LHS.Index))
		}
		return c
	case *PushStmt:
		c := estimateExpr(s.X)
		c.Cycles += costTapeOp
		return c
	case *PopStmt:
		return Cost{Cycles: costTapeOp}
	case *If:
		c := estimateExpr(s.C)
		c.Cycles += costBranch
		t := estimateBlock(s.Then)
		e := estimateBlock(s.Else)
		// Take the more expensive arm: utilization estimates are meant to
		// bound the steady-state critical path.
		if e.Cycles > t.Cycles {
			t = e
		}
		c.Add(t)
		return c
	case *For:
		trip, ok := ConstTrip(s)
		if !ok {
			trip = DefaultTrip
		}
		body := estimateBlock(s.Body)
		body.Cycles += costLoopIter
		c := estimateExpr(s.From)
		c.Add(estimateExpr(s.To))
		c.Add(body.scale(int64(trip)))
		return c
	case *While:
		body := estimateBlock(s.Body)
		body.Cycles += costLoopIter
		c := estimateExpr(s.C)
		c.Add(body.scale(DefaultTrip))
		return c
	case *Print:
		c := estimateExpr(s.X)
		c.Cycles += costSend // I/O call
		return c
	case *Send:
		c := Cost{Cycles: costSend}
		for _, a := range s.Args {
			c.Add(estimateExpr(a))
		}
		return c
	default:
		return Cost{}
	}
}

func estimateExpr(e Expr) Cost {
	switch e := e.(type) {
	case *Const:
		return Cost{}
	case *LocalRef, *FieldRef:
		return Cost{Cycles: costVarRef}
	case *LocalIndex:
		c := estimateExpr(e.Index)
		c.Cycles += costArrayRef
		return c
	case *FieldIndex:
		c := estimateExpr(e.Index)
		c.Cycles += costArrayRef
		return c
	case *Peek:
		c := estimateExpr(e.Index)
		c.Cycles += costTapeOp
		return c
	case *PopExpr:
		return Cost{Cycles: costTapeOp}
	case *Unary:
		c := estimateExpr(e.X)
		switch e.Op {
		case Neg, Not, BitNot, Trunc, Floor, Ceil, Round:
			c.Cycles += costALU
			if e.Op == Neg {
				c.Flops++
			}
		case Abs:
			c.Cycles += costALU
			c.Flops++
		default: // transcendentals
			c.Cycles += costMath
			c.Flops += flopsMath
		}
		return c
	case *Binary:
		c := estimateExpr(e.A)
		c.Add(estimateExpr(e.B))
		switch e.Op {
		case Mul:
			c.Cycles += costMul
			c.Flops++
		case Div, Mod:
			c.Cycles += costDiv
			c.Flops++
		case Pow, Atan2:
			c.Cycles += costPow
			c.Flops += flopsMath
		case Add, Sub, Min, Max:
			c.Cycles += costALU
			c.Flops++
		default:
			c.Cycles += costALU
		}
		return c
	case *Cond:
		c := estimateExpr(e.C)
		c.Cycles += costBranch
		a := estimateExpr(e.A)
		b := estimateExpr(e.B)
		if b.Cycles > a.Cycles {
			a = b
		}
		c.Add(a)
		return c
	default:
		return Cost{}
	}
}

// WritesFields reports whether any statement in f assigns to a field
// (scalar or array). A filter whose work function writes fields carries
// mutable state across firings: it cannot be data-parallelized (fissed)
// and is not a candidate for linear extraction.
func WritesFields(f *Func) bool {
	if f == nil {
		return false
	}
	return blockWritesFields(f.Body)
}

func blockWritesFields(body []Stmt) bool {
	for _, s := range body {
		switch s := s.(type) {
		case *Assign:
			if s.LHS.Kind == LVField || s.LHS.Kind == LVFieldArr {
				return true
			}
		case *If:
			if blockWritesFields(s.Then) || blockWritesFields(s.Else) {
				return true
			}
		case *For:
			if blockWritesFields(s.Body) {
				return true
			}
		case *While:
			if blockWritesFields(s.Body) {
				return true
			}
		}
	}
	return false
}

// SendsMessages reports whether f contains any teleport Send statement.
func SendsMessages(f *Func) bool { return len(Sends(f)) > 0 }

// Sends returns f's teleport Send statements in program order.
func Sends(f *Func) []*Send {
	var out []*Send
	var walk func(body []Stmt)
	walk = func(body []Stmt) {
		for _, s := range body {
			switch s := s.(type) {
			case *Send:
				out = append(out, s)
			case *If:
				walk(s.Then)
				walk(s.Else)
			case *For:
				walk(s.Body)
			case *While:
				walk(s.Body)
			}
		}
	}
	if f != nil {
		walk(f.Body)
	}
	return out
}
