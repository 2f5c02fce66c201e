// Package wfunc defines the intermediate language (IL) for StreamIt filter
// bodies: the work function, the init function, and message handlers.
//
// The IL is a small, typed statement/expression tree with explicit stream
// operations (push, pop, peek) and teleport message sends. A single IL
// representation feeds three consumers:
//
//   - the interpreter (package exec runs filters by walking the tree),
//   - the static work estimator (cycle and FLOP counts per firing), and
//   - the linear extraction analysis (package linear detects filters whose
//     outputs are affine combinations of their inputs).
//
// All runtime values are float64; the front end's int/float/bit types all
// lower onto float64 tapes (exact for integers up to 2^53). Integer
// operators (%, <<, >>, &, |, ^) truncate their operands to int64 first.
package wfunc

// UnOp is a unary operator.
type UnOp int

// Unary operators.
const (
	Neg UnOp = iota // arithmetic negation
	Not             // logical not: 0 -> 1, nonzero -> 0
	BitNot
	Trunc // truncate toward zero (int cast)
	Abs
	Sin
	Cos
	Tan
	Asin
	Acos
	Atan
	Exp
	Log
	Sqrt
	Floor
	Ceil
	Round
)

var unOpNames = [...]string{
	Neg: "neg", Not: "not", BitNot: "bitnot", Trunc: "trunc", Abs: "abs",
	Sin: "sin", Cos: "cos", Tan: "tan", Asin: "asin", Acos: "acos",
	Atan: "atan", Exp: "exp", Log: "log", Sqrt: "sqrt", Floor: "floor",
	Ceil: "ceil", Round: "round",
}

func (op UnOp) String() string {
	if int(op) < len(unOpNames) {
		return unOpNames[op]
	}
	return "unop?"
}

// BinOp is a binary operator.
type BinOp int

// Binary operators.
const (
	Add BinOp = iota
	Sub
	Mul
	Div
	Mod // integer modulo
	Pow
	Atan2
	Min
	Max
	And // logical and (operands already 0/1-ish; nonzero is true)
	Or
	BitAnd
	BitOr
	BitXor
	Shl
	Shr
	Eq
	Ne
	Lt
	Le
	Gt
	Ge
)

var binOpNames = [...]string{
	Add: "+", Sub: "-", Mul: "*", Div: "/", Mod: "%", Pow: "pow",
	Atan2: "atan2", Min: "min", Max: "max", And: "&&", Or: "||",
	BitAnd: "&", BitOr: "|", BitXor: "^", Shl: "<<", Shr: ">>",
	Eq: "==", Ne: "!=", Lt: "<", Le: "<=", Gt: ">", Ge: ">=",
}

func (op BinOp) String() string {
	if int(op) < len(binOpNames) {
		return binOpNames[op]
	}
	return "binop?"
}

// Expr is an IL expression node. Expressions evaluate to float64.
type Expr interface{ isExpr() }

// Const is a floating-point literal (ints are represented exactly).
type Const struct{ V float64 }

// LocalRef reads scalar local variable Idx of the enclosing function frame.
type LocalRef struct{ Idx int }

// FieldRef reads scalar filter field Idx.
type FieldRef struct{ Idx int }

// LocalIndex reads element [Index] of local array Arr.
type LocalIndex struct {
	Arr   int
	Index Expr
}

// FieldIndex reads element [Index] of field array Arr.
type FieldIndex struct {
	Arr   int
	Index Expr
}

// Peek reads the input tape at offset Index without consuming
// (peek(0) is the next item that pop would return).
type Peek struct{ Index Expr }

// PopExpr consumes and returns the next input item.
type PopExpr struct{}

// Unary applies a unary operator.
type Unary struct {
	Op UnOp
	X  Expr
}

// Binary applies a binary operator.
type Binary struct {
	Op   BinOp
	A, B Expr
}

// Cond is the ternary operator: if C != 0 then A else B.
type Cond struct{ C, A, B Expr }

func (*Const) isExpr()      {}
func (*LocalRef) isExpr()   {}
func (*FieldRef) isExpr()   {}
func (*LocalIndex) isExpr() {}
func (*FieldIndex) isExpr() {}
func (*Peek) isExpr()       {}
func (*PopExpr) isExpr()    {}
func (*Unary) isExpr()      {}
func (*Binary) isExpr()     {}
func (*Cond) isExpr()       {}

// LVKind distinguishes assignment targets.
type LVKind int

// Assignment target kinds.
const (
	LVLocal LVKind = iota
	LVField
	LVLocalArr
	LVFieldArr
)

// LValue is an assignment target: a scalar local/field, or an element of a
// local/field array (Index used only for the array kinds).
type LValue struct {
	Kind  LVKind
	Idx   int
	Index Expr
}

// Stmt is an IL statement node.
type Stmt interface{ isStmt() }

// Assign stores X into LHS.
type Assign struct {
	LHS LValue
	X   Expr
}

// PushStmt pushes X onto the output tape.
type PushStmt struct{ X Expr }

// PopStmt consumes one input item and discards it.
type PopStmt struct{}

// If executes Then when C != 0, else Else.
type If struct {
	C          Expr
	Then, Else []Stmt
}

// For is a counted loop: for Var := From; Var < To; Var += Step { Body }.
// Var is a scalar local index. Step must be a positive constant at build
// time for the loop to be statically analyzable; the interpreter evaluates
// it each iteration regardless.
type For struct {
	Var      int
	From, To Expr
	Step     Expr // nil means 1
	Body     []Stmt
}

// While loops while C != 0. While loops are opaque to the linear analysis
// and get a default trip-count in the work estimator.
type While struct {
	C    Expr
	Body []Stmt
}

// Break exits the innermost loop.
type Break struct{}

// Continue advances the innermost loop.
type Continue struct{}

// Print emits a value to the runtime's print hook (the language's
// println); with no hook attached it is a no-op.
type Print struct{ X Expr }

// Send is a teleport message: invoke Handler on every receiver registered
// with Portal, with the given latency range (in units of the sender's work
// executions, per the information-wavefront semantics). BestEffort messages
// are delivered at the runtime's convenience with no timing guarantee.
type Send struct {
	Portal     int
	Handler    string
	Args       []Expr
	MinLatency int
	MaxLatency int
	BestEffort bool
}

func (*Assign) isStmt()   {}
func (*PushStmt) isStmt() {}
func (*PopStmt) isStmt()  {}
func (*If) isStmt()       {}
func (*For) isStmt()      {}
func (*While) isStmt()    {}
func (*Break) isStmt()    {}
func (*Continue) isStmt() {}
func (*Send) isStmt()     {}
func (*Print) isStmt()    {}

// Func is a compiled IL function body plus its frame requirements.
type Func struct {
	Name       string
	Body       []Stmt
	NumLocals  int   // scalar locals
	ArraySizes []int // local array sizes, indexed by array slot
	NumParams  int   // leading scalar locals filled from message args
}

// FieldSpec declares one filter field (scalar or fixed-size array).
type FieldSpec struct {
	Name  string
	Size  int       // 0 for scalar, >0 for array length
	Init  float64   // scalar initial value
	InitA []float64 // optional array initial values (len <= Size)
}

// Kernel is the complete IL definition of a filter: its I/O rates, fields,
// and functions. Kernels are immutable after construction and shared by all
// runtime instances of the filter; mutable state lives in State.
type Kernel struct {
	Name string

	// Static data rates per work execution. For Dynamic kernels these are
	// hints only (the declared minimums); the work function may consume
	// and produce varying amounts per firing.
	Peek, Pop, Push int

	// Dynamic marks a filter with data-dependent rates — the paper's
	// stated future work. Dynamic kernels cannot be statically scheduled;
	// they run on the sequential engine built without a schedule.
	Dynamic bool

	Fields   []FieldSpec
	Init     *Func // optional; runs once before the first work execution
	Work     *Func
	Handlers map[string]*Func // teleport message handlers by name
}

// State is the mutable per-instance storage for a kernel's fields.
type State struct {
	Scalars []float64
	Arrays  [][]float64
}

// NewState allocates and initializes field storage for k.
func (k *Kernel) NewState() *State {
	st := &State{}
	for _, f := range k.Fields {
		if f.Size == 0 {
			st.Scalars = append(st.Scalars, f.Init)
		} else {
			a := make([]float64, f.Size)
			copy(a, f.InitA)
			st.Arrays = append(st.Arrays, a)
		}
	}
	return st
}

// Clone returns a deep copy of the state.
func (s *State) Clone() *State {
	c := &State{Scalars: append([]float64(nil), s.Scalars...)}
	c.Arrays = make([][]float64, len(s.Arrays))
	for i, a := range s.Arrays {
		c.Arrays[i] = append([]float64(nil), a...)
	}
	return c
}
