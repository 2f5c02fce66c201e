package wfunc

import "fmt"

// Validate checks a kernel's IL for well-formedness: slot indices in range,
// declared rates consistent, and — where statically determinable — that the
// work function pops and pushes exactly the declared number of items on
// every path (the StreamIt 1.0 static-rate requirement).
func Validate(k *Kernel) error {
	if k.Pop < 0 || k.Push < 0 || k.Peek < k.Pop {
		return fmt.Errorf("kernel %s: bad rates peek=%d pop=%d push=%d", k.Name, k.Peek, k.Pop, k.Push)
	}
	nScalar, nArr := 0, 0
	for _, f := range k.Fields {
		if f.Size == 0 {
			nScalar++
		} else {
			nArr++
		}
	}
	v := &validator{k: k, nScalar: nScalar, nArr: nArr}
	if k.Init != nil {
		if err := v.checkFunc(k.Init, false); err != nil {
			return err
		}
	}
	if k.Work == nil {
		return fmt.Errorf("kernel %s: missing work function", k.Name)
	}
	if err := v.checkFunc(k.Work, true); err != nil {
		return err
	}
	for _, h := range k.Handlers {
		if h.NumParams > h.NumLocals {
			return fmt.Errorf("kernel %s: handler %s has %d params but %d locals", k.Name, h.Name, h.NumParams, h.NumLocals)
		}
		if err := v.checkFunc(h, false); err != nil {
			return err
		}
	}
	// Static rate check on the work function (dynamic kernels exempt).
	io := CountIO(k.Work.Body)
	if io.Known && !k.Dynamic {
		if io.Pops != k.Pop {
			return fmt.Errorf("kernel %s: work pops %d items but declares pop %d", k.Name, io.Pops, k.Pop)
		}
		if io.Pushes != k.Push {
			return fmt.Errorf("kernel %s: work pushes %d items but declares push %d", k.Name, io.Pushes, k.Push)
		}
	}
	return nil
}

type validator struct {
	k             *Kernel
	nScalar, nArr int
	fn            *Func
	allowTapes    bool
}

func (v *validator) checkFunc(f *Func, tapes bool) error {
	v.fn, v.allowTapes = f, tapes
	if err := v.block(f.Body); err != nil {
		return fmt.Errorf("kernel %s, %s: %w", v.k.Name, f.Name, err)
	}
	return nil
}

func (v *validator) block(body []Stmt) error {
	for _, s := range body {
		if err := v.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (v *validator) stmt(s Stmt) error {
	switch s := s.(type) {
	case *Assign:
		if err := v.lvalue(&s.LHS); err != nil {
			return err
		}
		return v.expr(s.X)
	case *PushStmt:
		if !v.allowTapes {
			return fmt.Errorf("push outside work function")
		}
		return v.expr(s.X)
	case *PopStmt:
		if !v.allowTapes {
			return fmt.Errorf("pop outside work function")
		}
		return nil
	case *If:
		if err := v.expr(s.C); err != nil {
			return err
		}
		if err := v.block(s.Then); err != nil {
			return err
		}
		return v.block(s.Else)
	case *For:
		if err := v.localOK(s.Var); err != nil {
			return err
		}
		for _, e := range []Expr{s.From, s.To, s.Step} {
			if e != nil {
				if err := v.expr(e); err != nil {
					return err
				}
			}
		}
		return v.block(s.Body)
	case *While:
		if err := v.expr(s.C); err != nil {
			return err
		}
		return v.block(s.Body)
	case *Break, *Continue:
		return nil
	case *Print:
		return v.expr(s.X)
	case *Send:
		for _, a := range s.Args {
			if err := v.expr(a); err != nil {
				return err
			}
		}
		if !s.BestEffort && s.MinLatency > s.MaxLatency {
			return fmt.Errorf("send %s: min latency %d > max latency %d", s.Handler, s.MinLatency, s.MaxLatency)
		}
		return nil
	default:
		return fmt.Errorf("unknown statement %T", s)
	}
}

func (v *validator) localOK(idx int) error {
	if idx < 0 || idx >= v.fn.NumLocals {
		return fmt.Errorf("local %d out of range [0,%d)", idx, v.fn.NumLocals)
	}
	return nil
}

func (v *validator) lvalue(lv *LValue) error {
	switch lv.Kind {
	case LVLocal:
		return v.localOK(lv.Idx)
	case LVField:
		if lv.Idx < 0 || lv.Idx >= v.nScalar {
			return fmt.Errorf("field %d out of range [0,%d)", lv.Idx, v.nScalar)
		}
		return nil
	case LVLocalArr:
		if lv.Idx < 0 || lv.Idx >= len(v.fn.ArraySizes) {
			return fmt.Errorf("local array %d out of range", lv.Idx)
		}
		return v.expr(lv.Index)
	case LVFieldArr:
		if lv.Idx < 0 || lv.Idx >= v.nArr {
			return fmt.Errorf("field array %d out of range", lv.Idx)
		}
		return v.expr(lv.Index)
	}
	return fmt.Errorf("unknown lvalue kind %d", lv.Kind)
}

func (v *validator) expr(e Expr) error {
	switch e := e.(type) {
	case *Const:
		return nil
	case *LocalRef:
		return v.localOK(e.Idx)
	case *FieldRef:
		if e.Idx < 0 || e.Idx >= v.nScalar {
			return fmt.Errorf("field %d out of range [0,%d)", e.Idx, v.nScalar)
		}
		return nil
	case *LocalIndex:
		if e.Arr < 0 || e.Arr >= len(v.fn.ArraySizes) {
			return fmt.Errorf("local array %d out of range", e.Arr)
		}
		return v.expr(e.Index)
	case *FieldIndex:
		if e.Arr < 0 || e.Arr >= v.nArr {
			return fmt.Errorf("field array %d out of range", e.Arr)
		}
		return v.expr(e.Index)
	case *Peek:
		if !v.allowTapes {
			return fmt.Errorf("peek outside work function")
		}
		if c, ok := e.Index.(*Const); ok && !v.k.Dynamic {
			if int(c.V) < 0 || int(c.V) >= v.k.Peek {
				return fmt.Errorf("peek(%d) out of declared peek window %d", int(c.V), v.k.Peek)
			}
		}
		return v.expr(e.Index)
	case *PopExpr:
		if !v.allowTapes {
			return fmt.Errorf("pop outside work function")
		}
		return nil
	case *Unary:
		return v.expr(e.X)
	case *Binary:
		if err := v.expr(e.A); err != nil {
			return err
		}
		return v.expr(e.B)
	case *Cond:
		if err := v.expr(e.C); err != nil {
			return err
		}
		if err := v.expr(e.A); err != nil {
			return err
		}
		return v.expr(e.B)
	default:
		return fmt.Errorf("unknown expression %T", e)
	}
}

// IOCount is the result of static pop/push counting over a statement list.
type IOCount struct {
	Pops, Pushes int
	Known        bool // false when counts are data-dependent
}

// CountIO statically counts pops and pushes along the (unique) execution
// path of a statement list. Counts are Known only when control flow is
// rate-invariant: counted loops with constant bounds, and branches whose
// arms perform identical I/O.
func CountIO(body []Stmt) IOCount {
	c := IOCount{Known: true}
	for _, s := range body {
		sc := countStmtIO(s)
		c.Pops += sc.Pops
		c.Pushes += sc.Pushes
		c.Known = c.Known && sc.Known
	}
	return c
}

func countStmtIO(s Stmt) IOCount {
	switch s := s.(type) {
	case *Assign:
		return exprIO(s.X)
	case *PushStmt:
		c := exprIO(s.X)
		c.Pushes++
		return c
	case *PopStmt:
		return IOCount{Pops: 1, Known: true}
	case *If:
		t := CountIO(s.Then)
		e := CountIO(s.Else)
		cond := exprIO(s.C)
		if t.Known && e.Known && t == e {
			return IOCount{Pops: t.Pops + cond.Pops, Pushes: t.Pushes + cond.Pushes, Known: cond.Known}
		}
		if t.Pops == 0 && t.Pushes == 0 && e.Pops == 0 && e.Pushes == 0 && t.Known && e.Known {
			return cond
		}
		return IOCount{Known: false}
	case *For:
		b := CountIO(s.Body)
		if b.Pops == 0 && b.Pushes == 0 && b.Known {
			return IOCount{Known: true}
		}
		// The trip count is the loop's only if the body leaves the variable
		// alone: for (i = 0; i < 8; i++) { push(x); i = i + 1; } pushes 4.
		trip, ok := ConstTrip(s)
		if !ok || !b.Known || assignsLocal(s.Body, s.Var) {
			return IOCount{Known: false}
		}
		return IOCount{Pops: b.Pops * trip, Pushes: b.Pushes * trip, Known: true}
	case *While:
		b := CountIO(s.Body)
		if b.Pops == 0 && b.Pushes == 0 && b.Known {
			return exprIO(s.C)
		}
		return IOCount{Known: false}
	case *Print:
		return exprIO(s.X)
	case *Send:
		c := IOCount{Known: true}
		for _, a := range s.Args {
			ac := exprIO(a)
			c.Pops += ac.Pops
			c.Pushes += ac.Pushes
			c.Known = c.Known && ac.Known
		}
		return c
	default:
		return IOCount{Known: true}
	}
}

// assignsLocal reports whether any statement in body assigns local l,
// directly or as a nested loop's variable.
func assignsLocal(body []Stmt, l int) bool {
	for _, s := range body {
		switch s := s.(type) {
		case *Assign:
			if s.LHS.Kind == LVLocal && s.LHS.Idx == l {
				return true
			}
		case *If:
			if assignsLocal(s.Then, l) || assignsLocal(s.Else, l) {
				return true
			}
		case *For:
			if s.Var == l || assignsLocal(s.Body, l) {
				return true
			}
		case *While:
			if assignsLocal(s.Body, l) {
				return true
			}
		}
	}
	return false
}

func exprIO(e Expr) IOCount {
	switch e := e.(type) {
	case *PopExpr:
		return IOCount{Pops: 1, Known: true}
	case *Unary:
		return exprIO(e.X)
	case *Binary:
		a, b := exprIO(e.A), exprIO(e.B)
		return IOCount{Pops: a.Pops + b.Pops, Pushes: 0, Known: a.Known && b.Known}
	case *Cond:
		c, a, b := exprIO(e.C), exprIO(e.A), exprIO(e.B)
		if a == b && a.Known {
			return IOCount{Pops: c.Pops + a.Pops, Known: c.Known}
		}
		if a.Pops == 0 && b.Pops == 0 && a.Known && b.Known {
			return c
		}
		return IOCount{Known: false}
	case *Peek:
		return exprIO(e.Index)
	case *LocalIndex:
		return exprIO(e.Index)
	case *FieldIndex:
		return exprIO(e.Index)
	default:
		return IOCount{Known: true}
	}
}

// ConstTrip returns the statically-known trip count of a counted loop,
// when From, To and Step are constants.
func ConstTrip(f *For) (int, bool) {
	from, ok1 := f.From.(*Const)
	to, ok2 := f.To.(*Const)
	if !ok1 || !ok2 {
		return 0, false
	}
	step := 1.0
	if f.Step != nil {
		sc, ok := f.Step.(*Const)
		if !ok || sc.V <= 0 {
			return 0, false
		}
		step = sc.V
	}
	if to.V <= from.V {
		return 0, true
	}
	return int((to.V - from.V + step - 1) / step), true
}
