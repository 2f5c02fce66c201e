package linear

import (
	"fmt"

	"streamit/internal/wfunc"
)

// Extract performs the paper's linear extraction analysis: it abstractly
// interprets a kernel's work function with affine values (a coefficient per
// peek-window position plus a constant) and returns the filter's linear
// representation, or an error explaining why the filter is not linear.
//
// Requirements for success: the work function writes no fields (stateless),
// all control flow is resolvable at analysis time (loop bounds and branch
// conditions evaluate to constants), array indices and peek offsets are
// constants after resolution, and every pushed value is an affine
// combination of peeked values. Fields may be read; their values are the
// constants produced by the init function.
func Extract(k *wfunc.Kernel) (*Rep, error) {
	if wfunc.WritesFields(k.Work) {
		return nil, fmt.Errorf("filter %s is stateful: work writes fields", k.Name)
	}
	if wfunc.SendsMessages(k.Work) {
		return nil, fmt.Errorf("filter %s sends messages", k.Name)
	}
	if k.Push == 0 {
		return nil, fmt.Errorf("filter %s is a sink; sinks are not linear-optimized", k.Name)
	}
	// Run init concretely to obtain field constants.
	st := k.NewState()
	if k.Init != nil {
		env := wfunc.NewEnv(k.Init)
		env.State = st
		if err := wfunc.Exec(k.Init, env); err != nil {
			return nil, fmt.Errorf("filter %s: init failed: %w", k.Name, err)
		}
	}
	ex := &extractor{
		k:      k,
		state:  st,
		locals: make([]aff, k.Work.NumLocals),
		arrays: make([][]aff, len(k.Work.ArraySizes)),
	}
	for i, n := range k.Work.ArraySizes {
		ex.arrays[i] = make([]aff, n)
		for j := range ex.arrays[i] {
			ex.arrays[i][j] = constAff(0)
		}
	}
	for i := range ex.locals {
		ex.locals[i] = constAff(0)
	}
	rep := NewRep(k.Peek, k.Pop, k.Push)
	ex.rep = rep
	if _, err := ex.block(k.Work.Body); err != nil {
		return nil, fmt.Errorf("filter %s: %w", k.Name, err)
	}
	if ex.pops != k.Pop {
		return nil, fmt.Errorf("filter %s: analysis saw %d pops, declared %d", k.Name, ex.pops, k.Pop)
	}
	if ex.pushes != k.Push {
		return nil, fmt.Errorf("filter %s: analysis saw %d pushes, declared %d", k.Name, ex.pushes, k.Push)
	}
	return rep, nil
}

// aff is an affine value: konst + sum coeffs[i]*peek(i). A nil coeffs slice
// means a pure constant.
type aff struct {
	coeffs []float64
	konst  float64
}

func constAff(v float64) aff { return aff{konst: v} }

func (a aff) isConst() bool {
	for _, c := range a.coeffs {
		if c != 0 {
			return false
		}
	}
	return true
}

func (a aff) scale(s float64) aff {
	out := aff{konst: a.konst * s}
	if len(a.coeffs) > 0 && s != 0 {
		out.coeffs = make([]float64, len(a.coeffs))
		for i, c := range a.coeffs {
			out.coeffs[i] = c * s
		}
	}
	return out
}

func (a aff) add(b aff) aff {
	n := len(a.coeffs)
	if len(b.coeffs) > n {
		n = len(b.coeffs)
	}
	out := aff{konst: a.konst + b.konst}
	if n > 0 {
		out.coeffs = make([]float64, n)
		copy(out.coeffs, a.coeffs)
		for i, c := range b.coeffs {
			out.coeffs[i] += c
		}
	}
	return out
}

type extractor struct {
	k      *wfunc.Kernel
	state  *wfunc.State
	locals []aff
	arrays [][]aff
	pops   int
	pushes int
	rep    *Rep
}

type ctl int

const (
	ctlNone ctl = iota
	ctlBreak
	ctlContinue
)

func (ex *extractor) block(body []wfunc.Stmt) (ctl, error) {
	for _, s := range body {
		c, err := ex.stmt(s)
		if err != nil || c != ctlNone {
			return c, err
		}
	}
	return ctlNone, nil
}

func (ex *extractor) stmt(s wfunc.Stmt) (ctl, error) {
	switch s := s.(type) {
	case *wfunc.Assign:
		v, err := ex.eval(s.X)
		if err != nil {
			return ctlNone, err
		}
		return ctlNone, ex.store(&s.LHS, v)
	case *wfunc.PushStmt:
		v, err := ex.eval(s.X)
		if err != nil {
			return ctlNone, err
		}
		if ex.pushes >= ex.rep.Push {
			return ctlNone, fmt.Errorf("more pushes than declared")
		}
		row := ex.rep.A[ex.pushes]
		for i, c := range v.coeffs {
			if c != 0 && i >= ex.rep.Peek {
				return ctlNone, fmt.Errorf("push depends on peek(%d) beyond window %d", i, ex.rep.Peek)
			}
			if i < ex.rep.Peek {
				row[i] = c
			}
		}
		ex.rep.B[ex.pushes] = v.konst
		ex.pushes++
		return ctlNone, nil
	case *wfunc.PopStmt:
		ex.pops++
		return ctlNone, nil
	case *wfunc.If:
		c, err := ex.evalConst(s.C, "branch condition")
		if err != nil {
			return ctlNone, err
		}
		if c != 0 {
			return ex.block(s.Then)
		}
		return ex.block(s.Else)
	case *wfunc.For:
		from, err := ex.evalConst(s.From, "loop bound")
		if err != nil {
			return ctlNone, err
		}
		ex.locals[s.Var] = constAff(from)
		for iter := 0; ; iter++ {
			if iter > 1<<20 {
				return ctlNone, fmt.Errorf("loop does not terminate during analysis")
			}
			iv := ex.locals[s.Var]
			if !iv.isConst() {
				return ctlNone, fmt.Errorf("loop induction variable became input-dependent")
			}
			to, err := ex.evalConst(s.To, "loop bound")
			if err != nil {
				return ctlNone, err
			}
			if !(iv.konst < to) {
				return ctlNone, nil
			}
			c, err := ex.block(s.Body)
			if err != nil {
				return ctlNone, err
			}
			if c == ctlBreak {
				return ctlNone, nil
			}
			step := 1.0
			if s.Step != nil {
				if step, err = ex.evalConst(s.Step, "loop step"); err != nil {
					return ctlNone, err
				}
			}
			ex.locals[s.Var] = constAff(ex.locals[s.Var].konst + step)
		}
	case *wfunc.While:
		for iter := 0; ; iter++ {
			if iter > 1<<20 {
				return ctlNone, fmt.Errorf("while loop does not terminate during analysis")
			}
			c, err := ex.evalConst(s.C, "while condition")
			if err != nil {
				return ctlNone, err
			}
			if c == 0 {
				return ctlNone, nil
			}
			cc, err := ex.block(s.Body)
			if err != nil {
				return ctlNone, err
			}
			if cc == ctlBreak {
				return ctlNone, nil
			}
		}
	case *wfunc.Break:
		return ctlBreak, nil
	case *wfunc.Continue:
		return ctlContinue, nil
	case *wfunc.Send:
		return ctlNone, fmt.Errorf("message send in work function")
	case *wfunc.Print:
		return ctlNone, fmt.Errorf("println in work function (would be dropped by combination)")
	default:
		return ctlNone, fmt.Errorf("unsupported statement %T", s)
	}
}

func (ex *extractor) store(lv *wfunc.LValue, v aff) error {
	switch lv.Kind {
	case wfunc.LVLocal:
		ex.locals[lv.Idx] = v
	case wfunc.LVLocalArr:
		ix, err := ex.evalConst(lv.Index, "array index")
		if err != nil {
			return err
		}
		i := int(ix)
		if i < 0 || i >= len(ex.arrays[lv.Idx]) {
			return fmt.Errorf("array index %d out of range", i)
		}
		ex.arrays[lv.Idx][i] = v
	case wfunc.LVField, wfunc.LVFieldArr:
		return fmt.Errorf("work writes a field (stateful)")
	}
	return nil
}

func (ex *extractor) evalConst(e wfunc.Expr, what string) (float64, error) {
	v, err := ex.eval(e)
	if err != nil {
		return 0, err
	}
	if !v.isConst() {
		return 0, fmt.Errorf("%s depends on input data", what)
	}
	return v.konst, nil
}

func (ex *extractor) eval(e wfunc.Expr) (aff, error) {
	switch e := e.(type) {
	case *wfunc.Const:
		return constAff(e.V), nil
	case *wfunc.LocalRef:
		return ex.locals[e.Idx], nil
	case *wfunc.FieldRef:
		return constAff(ex.state.Scalars[e.Idx]), nil
	case *wfunc.LocalIndex:
		ix, err := ex.evalConst(e.Index, "array index")
		if err != nil {
			return aff{}, err
		}
		i := int(ix)
		if i < 0 || i >= len(ex.arrays[e.Arr]) {
			return aff{}, fmt.Errorf("array index %d out of range", i)
		}
		return ex.arrays[e.Arr][i], nil
	case *wfunc.FieldIndex:
		ix, err := ex.evalConst(e.Index, "array index")
		if err != nil {
			return aff{}, err
		}
		i := int(ix)
		if i < 0 || i >= len(ex.state.Arrays[e.Arr]) {
			return aff{}, fmt.Errorf("field array index %d out of range", i)
		}
		return constAff(ex.state.Arrays[e.Arr][i]), nil
	case *wfunc.Peek:
		ix, err := ex.evalConst(e.Index, "peek offset")
		if err != nil {
			return aff{}, err
		}
		return ex.peekAff(int(ix))
	case *wfunc.PopExpr:
		v, err := ex.peekAff(0)
		if err != nil {
			return aff{}, err
		}
		ex.pops++
		return v, nil
	case *wfunc.Unary:
		x, err := ex.eval(e.X)
		if err != nil {
			return aff{}, err
		}
		if e.Op == wfunc.Neg {
			return x.scale(-1), nil
		}
		if x.isConst() {
			return constAff(wfunc.EvalUnary(e.Op, x.konst)), nil
		}
		return aff{}, fmt.Errorf("nonlinear unary %v of input-dependent value", e.Op)
	case *wfunc.Binary:
		a, err := ex.eval(e.A)
		if err != nil {
			return aff{}, err
		}
		b, err := ex.eval(e.B)
		if err != nil {
			return aff{}, err
		}
		switch e.Op {
		case wfunc.Add:
			return a.add(b), nil
		case wfunc.Sub:
			return a.add(b.scale(-1)), nil
		case wfunc.Mul:
			if a.isConst() {
				return b.scale(a.konst), nil
			}
			if b.isConst() {
				return a.scale(b.konst), nil
			}
			return aff{}, fmt.Errorf("product of two input-dependent values is nonlinear")
		case wfunc.Div:
			if b.isConst() {
				if b.konst == 0 {
					return aff{}, fmt.Errorf("division by zero during analysis")
				}
				return a.scale(1 / b.konst), nil
			}
			return aff{}, fmt.Errorf("division by input-dependent value is nonlinear")
		default:
			if a.isConst() && b.isConst() {
				return constAff(wfunc.EvalBinary(e.Op, a.konst, b.konst)), nil
			}
			return aff{}, fmt.Errorf("nonlinear operator %v on input-dependent values", e.Op)
		}
	case *wfunc.Cond:
		c, err := ex.evalConst(e.C, "conditional")
		if err != nil {
			return aff{}, err
		}
		if c != 0 {
			return ex.eval(e.A)
		}
		return ex.eval(e.B)
	default:
		return aff{}, fmt.Errorf("unsupported expression %T", e)
	}
}

// peekAff returns the affine value of peek(i) relative to the current pop
// position: absolute window index pops + i.
func (ex *extractor) peekAff(i int) (aff, error) {
	abs := ex.pops + i
	if abs < 0 || abs >= ex.k.Peek {
		return aff{}, fmt.Errorf("peek index %d (absolute %d) outside window %d", i, abs, ex.k.Peek)
	}
	coeffs := make([]float64, abs+1)
	coeffs[abs] = 1
	return aff{coeffs: coeffs}, nil
}
