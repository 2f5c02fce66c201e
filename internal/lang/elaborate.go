package lang

import (
	"fmt"

	"streamit/internal/ir"
	"streamit/internal/wfunc"
)

// Elaborate instantiates the stream named top (conventionally "Main",
// which must consume and produce void) and returns the executable program.
// Composite bodies run at elaboration time with their parameters bound, so
// graphs may be built with loops and conditionals; filter bodies compile
// to wfunc IL with parameters baked in as constants.
func Elaborate(f *File, top string) (*ir.Program, error) {
	e := &elab{
		file:    f,
		decls:   map[string]*StreamDecl{},
		prog:    &ir.Program{Name: top},
		portals: map[string]*ir.Portal{},
		named:   map[string]*ir.Filter{},
		fuel:    elabFuel,
	}
	for _, d := range f.Streams {
		if e.decls[d.Name] != nil {
			return nil, fmt.Errorf("stream %s declared twice", d.Name)
		}
		e.decls[d.Name] = d
	}
	for _, name := range f.Portals {
		e.portals[name] = e.prog.NewPortal(name)
	}
	d := e.decls[top]
	if d == nil {
		return nil, fmt.Errorf("no stream named %s", top)
	}
	if len(d.Params) != 0 {
		return nil, fmt.Errorf("top-level stream %s must take no parameters", top)
	}
	s, err := e.instantiate(d, nil)
	if err != nil {
		return nil, err
	}
	e.prog.Top = s
	e.prog.Named = e.named
	return e.prog, nil
}

// ParseAndElaborate is the one-call front end.
func ParseAndElaborate(src, top string) (*ir.Program, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Elaborate(f, top)
}

type elab struct {
	file    *File
	decls   map[string]*StreamDecl
	prog    *ir.Program
	portals map[string]*ir.Portal
	named   map[string]*ir.Filter // instances named with "as"
	inst    int
	depth   int
	fuel    int
}

// maxElabDepth bounds nested stream instantiation. Recursion with a
// compile-time base case (add Sort(n/2) under if (n > 1)) is legitimate
// StreamIt; a stream that adds itself unconditionally is not, and without
// this bound it would elaborate forever.
const maxElabDepth = 500

// elabFuel bounds the total compile-time statements executed across one
// elaboration. Per-loop iteration caps alone don't terminate nested
// non-terminating loops (they multiply), nor exponential instantiation
// trees; a single global budget covers every such shape. Real programs
// use a few thousand statements; ~1M keeps even adversarial inputs
// (fuzzing) sub-second while leaving orders of magnitude of headroom.
const elabFuel = 1 << 20

// maxArraySize bounds declared array lengths (compile-time and filter
// state). Sizes are program text, so an absurd one is a program error,
// and allocating it eagerly (as the elaborator does for compile-time
// arrays) must not take down the compiler.
const maxArraySize = 1 << 24

func checkArraySize(name string, n float64) error {
	if !(n >= 1 && n <= maxArraySize) {
		return fmt.Errorf("array %s: size %g out of range [1,%d]", name, n, maxArraySize)
	}
	return nil
}

// value is a compile-time value: a scalar or an array.
type value struct {
	scalar float64
	arr    []float64
	isArr  bool
}

// cenv is the compile-time environment for composite bodies and constant
// expressions.
type cenv struct {
	vars   map[string]*value
	parent *cenv
}

func newCenv(parent *cenv) *cenv { return &cenv{vars: map[string]*value{}, parent: parent} }

func (c *cenv) lookup(name string) *value {
	for e := c; e != nil; e = e.parent {
		if v, ok := e.vars[name]; ok {
			return v
		}
	}
	return nil
}

func (e *elab) instantiate(d *StreamDecl, args []float64) (ir.Stream, error) {
	if len(args) != len(d.Params) {
		return nil, fmt.Errorf("stream %s takes %d parameters, got %d", d.Name, len(d.Params), len(args))
	}
	e.depth++
	defer func() { e.depth-- }()
	if e.depth > maxElabDepth {
		return nil, fmt.Errorf("stream %s: instantiation deeper than %d levels (unbounded recursion?)", d.Name, maxElabDepth)
	}
	env := newCenv(nil)
	for i, p := range d.Params {
		env.vars[p.Name] = &value{scalar: args[i]}
	}
	e.inst++
	switch d.Kind {
	case "filter":
		return e.buildFilter(d, env)
	case "pipeline":
		b := &compositeBuilder{kind: "pipeline", decl: d}
		if err := e.runBody(d.Body, env, b); err != nil {
			return nil, err
		}
		if len(b.children) == 0 {
			return nil, fmt.Errorf("pipeline %s added no children", d.Name)
		}
		return ir.Pipe(fmt.Sprintf("%s#%d", d.Name, e.inst), b.children...), nil
	case "splitjoin":
		b := &compositeBuilder{kind: "splitjoin", decl: d}
		if err := e.runBody(d.Body, env, b); err != nil {
			return nil, err
		}
		if b.split == nil || b.join == nil {
			return nil, fmt.Errorf("splitjoin %s needs both split and join declarations", d.Name)
		}
		return ir.SJ(fmt.Sprintf("%s#%d", d.Name, e.inst), *b.split, *b.join, b.children...), nil
	case "feedbackloop":
		b := &compositeBuilder{kind: "feedbackloop", decl: d}
		if err := e.runBody(d.Body, env, b); err != nil {
			return nil, err
		}
		if b.split == nil || b.join == nil || b.body == nil {
			return nil, fmt.Errorf("feedbackloop %s needs join, body, and split declarations", d.Name)
		}
		vals := append([]float64(nil), b.enqueued...)
		fl := &ir.FeedbackLoop{
			Name:  fmt.Sprintf("%s#%d", d.Name, e.inst),
			Join:  *b.join,
			Body:  b.body,
			Split: *b.split,
			Loop:  b.loop,
			Delay: len(vals),
		}
		if len(vals) > 0 {
			fl.InitPath = func(i int) float64 { return vals[i] }
		}
		return fl, nil
	}
	return nil, fmt.Errorf("unknown stream kind %q", d.Kind)
}

// compositeBuilder accumulates the structural effects of a composite body.
type compositeBuilder struct {
	kind     string
	decl     *StreamDecl
	children []ir.Stream
	split    *ir.SJSpec
	join     *ir.SJSpec
	body     ir.Stream
	loop     ir.Stream
	enqueued []float64
}

type ctlFlow int

const (
	flowNone ctlFlow = iota
	flowBreak
	flowContinue
)

// runBody interprets a composite body at elaboration time.
func (e *elab) runBody(body []Stmt, env *cenv, b *compositeBuilder) error {
	fl, err := e.runStmts(body, env, b)
	if err != nil {
		return err
	}
	if fl != flowNone {
		return fmt.Errorf("%s %s: break/continue outside loop", b.kind, b.decl.Name)
	}
	return nil
}

func (e *elab) runStmts(body []Stmt, env *cenv, b *compositeBuilder) (ctlFlow, error) {
	for _, s := range body {
		fl, err := e.runStmt(s, env, b)
		if err != nil || fl != flowNone {
			return fl, err
		}
	}
	return flowNone, nil
}

func (e *elab) runStmt(s Stmt, env *cenv, b *compositeBuilder) (ctlFlow, error) {
	e.fuel--
	if e.fuel < 0 {
		return flowNone, fmt.Errorf("elaboration exceeded %d compile-time statements (non-terminating loop or unbounded recursion?)", elabFuel)
	}
	switch s := s.(type) {
	case *DeclStmt:
		v := &value{}
		if s.Size != nil {
			n, err := e.constExpr(s.Size, env)
			if err != nil {
				return flowNone, err
			}
			if err := checkArraySize(s.Name, n); err != nil {
				return flowNone, err
			}
			v.isArr = true
			v.arr = make([]float64, int(n))
		} else if s.Init != nil {
			x, err := e.constExpr(s.Init, env)
			if err != nil {
				return flowNone, err
			}
			v.scalar = x
		}
		env.vars[s.Name] = v
		return flowNone, nil
	case *AssignStmt:
		return flowNone, e.runAssign(s, env)
	case *IfStmt:
		c, err := e.constExpr(s.Cond, env)
		if err != nil {
			return flowNone, err
		}
		if c != 0 {
			return e.runStmts(s.Then, newCenv(env), b)
		}
		return e.runStmts(s.Else, newCenv(env), b)
	case *ForStmt:
		loopEnv := newCenv(env)
		if s.Init != nil {
			if _, err := e.runStmt(s.Init, loopEnv, b); err != nil {
				return flowNone, err
			}
		}
		for iter := 0; ; iter++ {
			if iter > 1<<22 {
				return flowNone, fmt.Errorf("compile-time for loop did not terminate")
			}
			if s.Cond != nil {
				c, err := e.constExpr(s.Cond, loopEnv)
				if err != nil {
					return flowNone, err
				}
				if c == 0 {
					break
				}
			}
			fl, err := e.runStmts(s.Body, newCenv(loopEnv), b)
			if err != nil {
				return flowNone, err
			}
			if fl == flowBreak {
				break
			}
			if s.Post != nil {
				if _, err := e.runStmt(s.Post, loopEnv, b); err != nil {
					return flowNone, err
				}
			}
		}
		return flowNone, nil
	case *WhileStmt:
		for iter := 0; ; iter++ {
			if iter > 1<<22 {
				return flowNone, fmt.Errorf("compile-time while loop did not terminate")
			}
			c, err := e.constExpr(s.Cond, env)
			if err != nil {
				return flowNone, err
			}
			if c == 0 {
				return flowNone, nil
			}
			fl, err := e.runStmts(s.Body, newCenv(env), b)
			if err != nil {
				return flowNone, err
			}
			if fl == flowBreak {
				return flowNone, nil
			}
		}
	case *BreakStmt:
		return flowBreak, nil
	case *ContinueStmt:
		return flowContinue, nil
	case *AddStmt:
		if b.kind == "feedbackloop" {
			return flowNone, fmt.Errorf("feedbackloop %s: use body/loop, not add", b.decl.Name)
		}
		child, err := e.resolveStream(s.Call, env, b)
		if err != nil {
			return flowNone, err
		}
		if s.As != "" {
			filt, ok := child.(*ir.Filter)
			if !ok {
				return flowNone, fmt.Errorf("as %s: only filter instances can be named", s.As)
			}
			if e.named[s.As] != nil {
				return flowNone, fmt.Errorf("instance name %q used twice", s.As)
			}
			e.named[s.As] = filt
		}
		if s.Register != "" {
			p := e.portals[s.Register]
			if p == nil {
				return flowNone, fmt.Errorf("unknown portal %q", s.Register)
			}
			filt, ok := child.(*ir.Filter)
			if !ok {
				return flowNone, fmt.Errorf("register %s: only filters can receive messages", s.Register)
			}
			p.Register(filt)
		}
		b.children = append(b.children, child)
		return flowNone, nil
	case *SplitStmt:
		spec, err := e.sjSpec(s.Kind, s.Weights, env)
		if err != nil {
			return flowNone, err
		}
		b.split = &spec
		return flowNone, nil
	case *JoinStmt:
		spec, err := e.sjSpec(s.Kind, s.Weights, env)
		if err != nil {
			return flowNone, err
		}
		b.join = &spec
		return flowNone, nil
	case *BodyStmt:
		child, err := e.resolveStream(s.Call, env, b)
		if err != nil {
			return flowNone, err
		}
		b.body = child
		return flowNone, nil
	case *LoopStmt:
		child, err := e.resolveStream(s.Call, env, b)
		if err != nil {
			return flowNone, err
		}
		b.loop = child
		return flowNone, nil
	case *EnqueueStmt:
		v, err := e.constExpr(s.X, env)
		if err != nil {
			return flowNone, err
		}
		b.enqueued = append(b.enqueued, v)
		return flowNone, nil
	case *MaxLatencyStmt:
		a := e.named[s.A]
		bf := e.named[s.B]
		if a == nil || bf == nil {
			return flowNone, fmt.Errorf("maxlatency(%s, %s): both instances must be named with \"as\" before this statement", s.A, s.B)
		}
		n, err := e.constExpr(s.N, env)
		if err != nil {
			return flowNone, err
		}
		e.prog.Constraints = append(e.prog.Constraints, ir.LatencyConstraint{
			Upstream: a, Downstream: bf, Latency: int(n),
		})
		return flowNone, nil
	case *ExprStmt:
		_, err := e.constExpr(s.X, env)
		return flowNone, err
	default:
		return flowNone, fmt.Errorf("statement %T is not allowed in a composite body", s)
	}
}

func (e *elab) runAssign(s *AssignStmt, env *cenv) error {
	v := env.lookup(s.Name)
	if v == nil {
		return fmt.Errorf("undefined variable %q", s.Name)
	}
	x, err := e.constExpr(s.Value, env)
	if err != nil {
		return err
	}
	apply := func(old float64) float64 {
		switch s.Op {
		case "=":
			return x
		case "+=":
			return old + x
		case "-=":
			return old - x
		case "*=":
			return old * x
		case "/=":
			return old / x
		case "%=":
			return float64(int64(old) % int64(x))
		}
		return x
	}
	if s.Index != nil {
		if !v.isArr {
			return fmt.Errorf("%q is not an array", s.Name)
		}
		ix, err := e.constExpr(s.Index, env)
		if err != nil {
			return err
		}
		i := int(ix)
		if i < 0 || i >= len(v.arr) {
			return fmt.Errorf("index %d out of range for %q", i, s.Name)
		}
		v.arr[i] = apply(v.arr[i])
		return nil
	}
	v.scalar = apply(v.scalar)
	return nil
}

func (e *elab) sjSpec(kind string, weights []Expr, env *cenv) (ir.SJSpec, error) {
	if kind == "duplicate" {
		return ir.Duplicate(), nil
	}
	var w []int
	for _, we := range weights {
		v, err := e.constExpr(we, env)
		if err != nil {
			return ir.SJSpec{}, err
		}
		w = append(w, int(v))
	}
	return ir.RoundRobin(w...), nil
}

// resolveStream instantiates a child stream reference (including the
// built-in Identity).
func (e *elab) resolveStream(call *CallExpr, env *cenv, b *compositeBuilder) (ir.Stream, error) {
	if call.Name == "Identity" {
		typ := b.decl.OutType
		if typ == ir.TypeVoid {
			typ = b.decl.InType
		}
		if typ == ir.TypeVoid {
			typ = ir.TypeFloat
		}
		return ir.Identity(typ), nil
	}
	d := e.decls[call.Name]
	if d == nil {
		return nil, fmt.Errorf("line %d: unknown stream %q", call.Line, call.Name)
	}
	args := make([]float64, len(call.Args))
	for i, a := range call.Args {
		v, err := e.constExpr(a, env)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return e.instantiate(d, args)
}

// constExpr evaluates a compile-time expression.
func (e *elab) constExpr(x Expr, env *cenv) (float64, error) {
	switch x := x.(type) {
	case *NumLit:
		return x.Val, nil
	case *Ident:
		v := env.lookup(x.Name)
		if v == nil {
			return 0, fmt.Errorf("undefined variable %q", x.Name)
		}
		if v.isArr {
			return 0, fmt.Errorf("%q is an array", x.Name)
		}
		return v.scalar, nil
	case *IndexExpr:
		v := env.lookup(x.Name)
		if v == nil || !v.isArr {
			return 0, fmt.Errorf("%q is not an array", x.Name)
		}
		ix, err := e.constExpr(x.Index, env)
		if err != nil {
			return 0, err
		}
		i := int(ix)
		if i < 0 || i >= len(v.arr) {
			return 0, fmt.Errorf("index %d out of range for %q", i, x.Name)
		}
		return v.arr[i], nil
	case *UnaryExpr:
		v, err := e.constExpr(x.X, env)
		if err != nil {
			return 0, err
		}
		if op, ok := ilUnOps[x.Op]; ok {
			return wfunc.EvalUnary(op, v), nil
		}
	case *BinaryExpr:
		l, err := e.constExpr(x.L, env)
		if err != nil {
			return 0, err
		}
		r, err := e.constExpr(x.R, env)
		if err != nil {
			return 0, err
		}
		op, ok := ilBinOps[x.Op]
		switch {
		case !ok:
			return 0, fmt.Errorf("unknown operator %q", x.Op)
		case op == wfunc.Div && r == 0:
			return 0, fmt.Errorf("division by zero in compile-time expression")
		case op == wfunc.Mod && int64(r) == 0:
			return 0, fmt.Errorf("modulo by zero in compile-time expression")
		}
		return wfunc.EvalBinary(op, l, r), nil
	case *CondExpr:
		c, err := e.constExpr(x.C, env)
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return e.constExpr(x.A, env)
		}
		return e.constExpr(x.B, env)
	case *CallExpr:
		un, isUn := unOpFor[x.Name]
		bin, isBin := binOpFor[x.Name]
		if !isUn && !isBin {
			return 0, fmt.Errorf("line %d: %q is not usable in a compile-time expression", x.Line, x.Name)
		}
		arity := 1
		if isBin {
			arity = 2
		}
		if len(x.Args) != arity {
			return 0, fmt.Errorf("line %d: %s takes %d argument(s), got %d", x.Line, x.Name, arity, len(x.Args))
		}
		args := make([]float64, len(x.Args))
		for i, a := range x.Args {
			v, err := e.constExpr(a, env)
			if err != nil {
				return 0, err
			}
			args[i] = v
		}
		if isBin {
			return wfunc.EvalBinary(bin, args[0], args[1]), nil
		}
		return wfunc.EvalUnary(un, args[0]), nil
	}
	return 0, fmt.Errorf("unsupported compile-time expression %T", x)
}

// unOpFor maps builtin names to IL unary ops for filter compilation.
var unOpFor = map[string]wfunc.UnOp{
	"sin": wfunc.Sin, "cos": wfunc.Cos, "tan": wfunc.Tan,
	"asin": wfunc.Asin, "acos": wfunc.Acos, "atan": wfunc.Atan,
	"exp": wfunc.Exp, "log": wfunc.Log, "sqrt": wfunc.Sqrt,
	"abs": wfunc.Abs, "floor": wfunc.Floor, "ceil": wfunc.Ceil,
	"round": wfunc.Round,
}

var binOpFor = map[string]wfunc.BinOp{
	"pow": wfunc.Pow, "atan2": wfunc.Atan2, "min": wfunc.Min, "max": wfunc.Max,
}
