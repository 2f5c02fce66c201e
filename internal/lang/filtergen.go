package lang

import (
	"fmt"

	"streamit/internal/ir"
	"streamit/internal/wfunc"
)

// buildFilter compiles a filter declaration with bound parameters into an
// ir.Filter whose behaviour is wfunc IL.
func (e *elab) buildFilter(d *StreamDecl, env *cenv) (ir.Stream, error) {
	kb := wfuncBuilderFor(d, e.inst)
	fc := &filterComp{
		e:      e,
		d:      d,
		env:    env,
		kb:     kb,
		fields: map[string]*wfunc.FieldRef{},
		farr:   map[string]int{},
		locals: map[string]*wfunc.LocalRef{},
		larr:   map[string]int{},
	}

	// Rates.
	pop, err := fc.rate(d.Work.Pop, 0)
	if err != nil {
		return nil, err
	}
	push, err := fc.rate(d.Work.Push, 0)
	if err != nil {
		return nil, err
	}
	peek, err := fc.rate(d.Work.Peek, pop)
	if err != nil {
		return nil, err
	}
	b := wfunc.NewKernel(kb, peek, pop, push)
	if d.Work.Dynamic {
		b.Dynamic()
	}
	fc.b = b

	// Handler parameters must occupy the leading local slots (SetArgs
	// fills locals 0..n), so allocate them before anything else. Handlers
	// may reuse the same slots.
	maxParams := 0
	for _, h := range d.Handlers {
		if len(h.Params) > maxParams {
			maxParams = len(h.Params)
		}
	}
	argRefs := make([]*wfunc.LocalRef, maxParams)
	for i := range argRefs {
		argRefs[i] = b.Local(fmt.Sprintf("__arg%d", i))
	}

	// Fields.
	for _, fd := range d.Fields {
		if fd.Size != nil {
			n, err := e.constExpr(fd.Size, env)
			if err != nil {
				return nil, fmt.Errorf("filter %s, field %s: %w", d.Name, fd.Name, err)
			}
			if err := checkArraySize(fd.Name, n); err != nil {
				return nil, fmt.Errorf("filter %s: %w", d.Name, err)
			}
			fc.farr[fd.Name] = b.FieldArray(fd.Name, int(n))
		} else {
			init := 0.0
			if fd.Init != nil {
				if init, err = e.constExpr(fd.Init, env); err != nil {
					return nil, fmt.Errorf("filter %s, field %s: %w", d.Name, fd.Name, err)
				}
			}
			fc.fields[fd.Name] = b.Field(fd.Name, init)
		}
	}

	// Bodies.
	if d.Init != nil {
		body, err := fc.stmts(d.Init, false)
		if err != nil {
			return nil, fmt.Errorf("filter %s init: %w", d.Name, err)
		}
		b.InitBody(body...)
	}
	work, err := fc.stmts(d.Work.Body, true)
	if err != nil {
		return nil, fmt.Errorf("filter %s work: %w", d.Name, err)
	}
	b.WorkBody(work...)
	for _, h := range d.Handlers {
		// Map handler params onto the leading arg slots.
		saved := fc.locals
		fc.locals = map[string]*wfunc.LocalRef{}
		for k, v := range saved {
			fc.locals[k] = v
		}
		for i, p := range h.Params {
			fc.locals[p.Name] = argRefs[i]
		}
		body, err := fc.stmts(h.Body, false)
		if err != nil {
			return nil, fmt.Errorf("filter %s handler %s: %w", d.Name, h.Name, err)
		}
		b.Handler(h.Name, len(h.Params), body...)
		fc.locals = saved
	}

	var kern *wfunc.Kernel
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("filter %s: %v", d.Name, r)
			}
		}()
		kern = b.Build()
	}()
	if err != nil {
		return nil, err
	}
	// Stream parameters were baked in as constants; fold them through.
	wfunc.FoldKernel(kern)
	return &ir.Filter{Kernel: kern, In: d.InType, Out: d.OutType}, nil
}

func wfuncBuilderFor(d *StreamDecl, inst int) string {
	return fmt.Sprintf("%s#%d", d.Name, inst)
}

// filterComp compiles filter statements/expressions to IL.
type filterComp struct {
	e      *elab
	d      *StreamDecl
	env    *cenv // parameters (compile-time constants)
	kb     string
	b      *wfunc.KernelBuilder
	fields map[string]*wfunc.FieldRef
	farr   map[string]int
	locals map[string]*wfunc.LocalRef
	larr   map[string]int
}

func (fc *filterComp) rate(x Expr, dflt int) (int, error) {
	if x == nil {
		return dflt, nil
	}
	v, err := fc.e.constExpr(x, fc.env)
	if err != nil {
		return 0, fmt.Errorf("filter %s: rate must be a compile-time constant: %w", fc.d.Name, err)
	}
	return int(v), nil
}

func (fc *filterComp) stmts(in []Stmt, inWork bool) ([]wfunc.Stmt, error) {
	var out []wfunc.Stmt
	for _, s := range in {
		c, err := fc.stmt(s, inWork)
		if err != nil {
			return nil, err
		}
		if c != nil {
			out = append(out, c...)
		}
	}
	return out, nil
}

func (fc *filterComp) stmt(s Stmt, inWork bool) ([]wfunc.Stmt, error) {
	switch s := s.(type) {
	case *DeclStmt:
		if s.Size != nil {
			n, err := fc.e.constExpr(s.Size, fc.env)
			if err != nil {
				return nil, fmt.Errorf("array %s size: %w", s.Name, err)
			}
			if err := checkArraySize(s.Name, n); err != nil {
				return nil, err
			}
			fc.larr[s.Name] = fc.b.LocalArray(s.Name, int(n))
			return nil, nil
		}
		ref := fc.b.Local(s.Name)
		fc.locals[s.Name] = ref
		if s.Init != nil {
			x, err := fc.expr(s.Init)
			if err != nil {
				return nil, err
			}
			return []wfunc.Stmt{wfunc.Set(ref, x)}, nil
		}
		// IL locals are zeroed per firing, matching a zero initializer.
		return nil, nil

	case *AssignStmt:
		return fc.assign(s)

	case *IfStmt:
		c, err := fc.expr(s.Cond)
		if err != nil {
			return nil, err
		}
		then, err := fc.stmts(s.Then, inWork)
		if err != nil {
			return nil, err
		}
		els, err := fc.stmts(s.Else, inWork)
		if err != nil {
			return nil, err
		}
		return []wfunc.Stmt{wfunc.IfElse(c, then, els)}, nil

	case *ForStmt:
		return fc.forStmt(s, inWork)

	case *WhileStmt:
		c, err := fc.expr(s.Cond)
		if err != nil {
			return nil, err
		}
		body, err := fc.stmts(s.Body, inWork)
		if err != nil {
			return nil, err
		}
		return []wfunc.Stmt{&wfunc.While{C: c, Body: body}}, nil

	case *BreakStmt:
		return []wfunc.Stmt{&wfunc.Break{}}, nil
	case *ContinueStmt:
		return []wfunc.Stmt{&wfunc.Continue{}}, nil

	case *SendStmt:
		p := fc.e.portals[s.Portal]
		if p == nil {
			return nil, fmt.Errorf("unknown portal %q", s.Portal)
		}
		var args []wfunc.Expr
		for _, a := range s.Args {
			x, err := fc.expr(a)
			if err != nil {
				return nil, err
			}
			args = append(args, x)
		}
		snd := &wfunc.Send{Portal: p.ID, Handler: s.Handler, Args: args, BestEffort: s.BestEffort}
		if s.Latency != nil {
			lat, err := fc.e.constExpr(s.Latency, fc.env)
			if err != nil {
				return nil, fmt.Errorf("send latency must be a compile-time constant: %w", err)
			}
			snd.MinLatency, snd.MaxLatency = int(lat), int(lat)
			snd.BestEffort = false
		}
		return []wfunc.Stmt{snd}, nil

	case *ExprStmt:
		// push(x); pop(); println(x); or a bare call with side effects.
		if call, ok := s.X.(*CallExpr); ok {
			switch call.Name {
			case "println", "print":
				if len(call.Args) != 1 {
					return nil, fmt.Errorf("println takes one argument")
				}
				x, err := fc.expr(call.Args[0])
				if err != nil {
					return nil, err
				}
				return []wfunc.Stmt{&wfunc.Print{X: x}}, nil
			case "push":
				if len(call.Args) != 1 {
					return nil, fmt.Errorf("push takes one argument")
				}
				x, err := fc.expr(call.Args[0])
				if err != nil {
					return nil, err
				}
				return []wfunc.Stmt{wfunc.Push1(x)}, nil
			case "pop":
				return []wfunc.Stmt{wfunc.Pop1()}, nil
			}
		}
		return nil, fmt.Errorf("expression statement has no effect")

	default:
		return nil, fmt.Errorf("statement %T is not allowed inside a filter", s)
	}
}

func (fc *filterComp) assign(s *AssignStmt) ([]wfunc.Stmt, error) {
	rhs, err := fc.expr(s.Value)
	if err != nil {
		return nil, err
	}
	// Resolve the target.
	var lv wfunc.LValue
	var read wfunc.Expr
	switch {
	case s.Index != nil:
		ix, err := fc.expr(s.Index)
		if err != nil {
			return nil, err
		}
		if arr, ok := fc.larr[s.Name]; ok {
			lv = wfunc.LValue{Kind: wfunc.LVLocalArr, Idx: arr, Index: ix}
			read = wfunc.LIdx(arr, ix)
		} else if arr, ok := fc.farr[s.Name]; ok {
			lv = wfunc.LValue{Kind: wfunc.LVFieldArr, Idx: arr, Index: ix}
			read = wfunc.FIdx(arr, ix)
		} else {
			return nil, fmt.Errorf("unknown array %q", s.Name)
		}
	case fc.locals[s.Name] != nil:
		ref := fc.locals[s.Name]
		lv = wfunc.LValue{Kind: wfunc.LVLocal, Idx: ref.Idx}
		read = ref
	case fc.fields[s.Name] != nil:
		ref := fc.fields[s.Name]
		lv = wfunc.LValue{Kind: wfunc.LVField, Idx: ref.Idx}
		read = ref
	default:
		return nil, fmt.Errorf("undefined variable %q", s.Name)
	}
	if s.Op != "=" {
		var op wfunc.BinOp
		switch s.Op {
		case "+=":
			op = wfunc.Add
		case "-=":
			op = wfunc.Sub
		case "*=":
			op = wfunc.Mul
		case "/=":
			op = wfunc.Div
		case "%=":
			op = wfunc.Mod
		}
		rhs = wfunc.Bin(op, read, rhs)
	}
	return []wfunc.Stmt{&wfunc.Assign{LHS: lv, X: rhs}}, nil
}

// forStmt recognizes counted loops (for (int i = a; i < b; i++)) and emits
// the analyzable IL For; everything else lowers to init+While.
func (fc *filterComp) forStmt(s *ForStmt, inWork bool) ([]wfunc.Stmt, error) {
	var pre []wfunc.Stmt
	var loopVar *wfunc.LocalRef
	var from wfunc.Expr

	if d, ok := s.Init.(*DeclStmt); ok && d.Size == nil {
		ref := fc.b.Local(d.Name)
		fc.locals[d.Name] = ref
		loopVar = ref
		if d.Init != nil {
			x, err := fc.expr(d.Init)
			if err != nil {
				return nil, err
			}
			from = x
		} else {
			from = wfunc.C(0)
		}
	} else if a, ok := s.Init.(*AssignStmt); ok && a.Index == nil && a.Op == "=" {
		if ref := fc.locals[a.Name]; ref != nil {
			loopVar = ref
			x, err := fc.expr(a.Value)
			if err != nil {
				return nil, err
			}
			from = x
		}
	}

	// Pattern: cond is "i < bound" (or <=) and post is i++/i += step.
	if loopVar != nil {
		if cond, ok := s.Cond.(*BinaryExpr); ok && (cond.Op == "<" || cond.Op == "<=") {
			if id, ok := cond.L.(*Ident); ok && fc.locals[id.Name] == loopVar {
				if post, ok := s.Post.(*AssignStmt); ok && post.Index == nil && post.Op == "+=" &&
					fc.locals[post.Name] == loopVar {
					to, err := fc.expr(cond.R)
					if err != nil {
						return nil, err
					}
					if cond.Op == "<=" {
						to = wfunc.AddX(to, wfunc.C(1))
					}
					step, err := fc.expr(post.Value)
					if err != nil {
						return nil, err
					}
					body, err := fc.stmts(s.Body, inWork)
					if err != nil {
						return nil, err
					}
					f := &wfunc.For{Var: loopVar.Idx, From: from, To: to, Step: step, Body: body}
					return append(pre, f), nil
				}
			}
		}
	}

	// General lowering: { init; while (cond) { body; post } }.
	if s.Init != nil {
		st, err := fc.stmt(s.Init, inWork)
		if err != nil {
			return nil, err
		}
		pre = append(pre, st...)
	}
	cond := wfunc.Expr(wfunc.C(1))
	if s.Cond != nil {
		c, err := fc.expr(s.Cond)
		if err != nil {
			return nil, err
		}
		cond = c
	}
	body, err := fc.stmts(s.Body, inWork)
	if err != nil {
		return nil, err
	}
	if s.Post != nil {
		st, err := fc.stmt(s.Post, inWork)
		if err != nil {
			return nil, err
		}
		body = append(body, st...)
	}
	return append(pre, &wfunc.While{C: cond, Body: body}), nil
}

func (fc *filterComp) expr(x Expr) (wfunc.Expr, error) {
	switch x := x.(type) {
	case *NumLit:
		return wfunc.C(x.Val), nil
	case *Ident:
		if ref, ok := fc.locals[x.Name]; ok {
			return ref, nil
		}
		if ref, ok := fc.fields[x.Name]; ok {
			return ref, nil
		}
		if v := fc.env.lookup(x.Name); v != nil && !v.isArr {
			return wfunc.C(v.scalar), nil // parameter: baked constant
		}
		return nil, fmt.Errorf("undefined variable %q", x.Name)
	case *IndexExpr:
		ix, err := fc.expr(x.Index)
		if err != nil {
			return nil, err
		}
		if arr, ok := fc.larr[x.Name]; ok {
			return wfunc.LIdx(arr, ix), nil
		}
		if arr, ok := fc.farr[x.Name]; ok {
			return wfunc.FIdx(arr, ix), nil
		}
		return nil, fmt.Errorf("unknown array %q", x.Name)
	case *UnaryExpr:
		v, err := fc.expr(x.X)
		if err != nil {
			return nil, err
		}
		if op, ok := ilUnOps[x.Op]; ok {
			return wfunc.Un(op, v), nil
		}
		return nil, fmt.Errorf("unknown unary operator %q", x.Op)
	case *BinaryExpr:
		l, err := fc.expr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := fc.expr(x.R)
		if err != nil {
			return nil, err
		}
		op, ok := ilBinOps[x.Op]
		if !ok {
			return nil, fmt.Errorf("unknown operator %q", x.Op)
		}
		return wfunc.Bin(op, l, r), nil
	case *CondExpr:
		c, err := fc.expr(x.C)
		if err != nil {
			return nil, err
		}
		a, err := fc.expr(x.A)
		if err != nil {
			return nil, err
		}
		b, err := fc.expr(x.B)
		if err != nil {
			return nil, err
		}
		return &wfunc.Cond{C: c, A: a, B: b}, nil
	case *CallExpr:
		switch x.Name {
		case "peek":
			if len(x.Args) != 1 {
				return nil, fmt.Errorf("peek takes one argument")
			}
			ix, err := fc.expr(x.Args[0])
			if err != nil {
				return nil, err
			}
			return wfunc.PeekX(ix), nil
		case "pop":
			return wfunc.PopE(), nil
		}
		if op, ok := unOpFor[x.Name]; ok {
			if len(x.Args) != 1 {
				return nil, fmt.Errorf("%s takes one argument", x.Name)
			}
			v, err := fc.expr(x.Args[0])
			if err != nil {
				return nil, err
			}
			return wfunc.Un(op, v), nil
		}
		if op, ok := binOpFor[x.Name]; ok {
			if len(x.Args) != 2 {
				return nil, fmt.Errorf("%s takes two arguments", x.Name)
			}
			a, err := fc.expr(x.Args[0])
			if err != nil {
				return nil, err
			}
			b, err := fc.expr(x.Args[1])
			if err != nil {
				return nil, err
			}
			return wfunc.Bin(op, a, b), nil
		}
		return nil, fmt.Errorf("unknown function %q", x.Name)
	}
	return nil, fmt.Errorf("unsupported expression %T", x)
}

// ilUnOps and ilBinOps map the language's operators to the IL's: filter
// bodies compile to them, and compile-time expressions evaluate through
// them (constExpr).
var ilUnOps = map[string]wfunc.UnOp{"-": wfunc.Neg, "!": wfunc.Not, "~": wfunc.BitNot}

var ilBinOps = map[string]wfunc.BinOp{
	"+": wfunc.Add, "-": wfunc.Sub, "*": wfunc.Mul, "/": wfunc.Div,
	"%": wfunc.Mod,
	"<": wfunc.Lt, "<=": wfunc.Le, ">": wfunc.Gt, ">=": wfunc.Ge,
	"==": wfunc.Eq, "!=": wfunc.Ne,
	"&&": wfunc.And, "||": wfunc.Or,
	"&": wfunc.BitAnd, "|": wfunc.BitOr, "^": wfunc.BitXor,
	"<<": wfunc.Shl, ">>": wfunc.Shr,
}
