// Package vm executes work-function IL as flat bytecode instead of walking
// the statement/expression tree. The compiler (compile.go) lowers a
// wfunc.Func — after constant folding — into a stack bytecode with resolved
// local/field/array slots, short-circuit control flow turned into jumps,
// and direct push/pop/peek tape instructions; the Machine here runs that
// bytecode against the same wfunc.Tape / wfunc.Messenger interfaces the
// interpreter uses, binding a wfunc.Ring (every engine's tape) as one.
//
// The VM is bit-identical to the interpreter by construction: all values
// are float64, the uncommon operators delegate to wfunc.EvalUnary and
// wfunc.EvalBinary (the shared semantic definitions), evaluation order of
// every tape operation is preserved, and message sends fire at exactly the
// same points, so sdep-based teleport delivery is unchanged. Dispatch over
// a flat instruction array replaces the interpreter's per-node type
// switches, recursive calls, and error plumbing, which is worth several
// times the throughput on the hot path every engine shares. Counted loops
// of a closed family skip dispatch altogether: one guarded span instruction
// runs the whole loop natively over tape and array spans (span.go), or, for
// a loop of pure pushes and local-array stores, as an expression program
// over blocks of trips that writes in place into the out tape and the
// arrays (map.go).
package vm

import (
	"fmt"

	"streamit/internal/wfunc"
)

// Op is a bytecode opcode. The zero value is invalid so that sparse
// operator-mapping tables fail loudly on unmapped entries.
type Op uint8

// Opcodes. The structural group below carries an operand in instr.a: a
// constant-pool index, a local/field/array slot, an absolute jump target,
// or a send-site index. The operator group is operand-free stack
// arithmetic; logical && and || have no opcodes because the compiler
// lowers their short-circuit evaluation into jumps.
const (
	opInvalid Op = iota

	opConst         // push consts[a]
	opLoadLocal     // push locals[a]
	opStoreLocal    // locals[a] = pop
	opLoadField     // push state.Scalars[a]
	opStoreField    // state.Scalars[a] = pop
	opLoadLocalIdx  // i = pop; push arrays[a][i]
	opStoreLocalIdx // i = pop; arrays[a][i] = pop
	opLoadFieldIdx  // i = pop; push state.Arrays[a][i]
	opStoreFieldIdx // i = pop; state.Arrays[a][i] = pop
	opPeek          // i = pop; push in.Peek(i)
	opPopV          // push in.Pop()
	opPopN          // in.Pop(), value discarded
	opPushV         // out.Push(pop)
	opJump          // pc = a
	opJumpIfZero    // if pop == 0 { pc = a }
	opBool          // tos = (tos != 0) ? 1 : 0
	opIncLocal      // locals[a] += pop (counted-loop step)
	opPrint         // print hook gets pop
	opSend          // deliver sends[a], popping its argument count

	// Fused superinstructions. The compiler emits these for the hot
	// shapes of real work functions (FIR-style accumulation loops):
	// peeking at a loop variable, indexing an array by a loop variable,
	// counted-loop heads with constant bounds, and constant steps. Each
	// replaces a 2–4 instruction sequence with identical semantics.
	opPeekLocal     // push in.Peek(int(locals[a]))
	opLoadLocalIdxL // push arrays[a][int(locals[b])]
	opLoadFieldIdxL // push state.Arrays[a][int(locals[b])]
	opJGeLC         // if !(locals[b&0xffff] < consts[b>>16]) { pc = a }
	opIncLocalC     // locals[a] += consts[b]
	opLoopLC        // v, bound from the opJGeLC at a-1: locals[v] += consts[b]; if locals[v] < bound { pc = a }

	// The span instruction (span.go) sits in front of a counted loop's
	// ordinary bytecode: if the guard of spans[a] holds it runs the whole
	// loop natively and sets pc = b, the instruction behind the loop;
	// otherwise it does nothing.
	opSpan

	// Unary operators (dedicated opcodes keep the hot ones branch-cheap;
	// the trigonometric tail delegates to wfunc.EvalUnary).
	opNeg
	opNot
	opTrunc
	opAbs
	opUnaryEv // a = wfunc.UnOp, via wfunc.EvalUnary

	// Binary operators.
	opAdd
	opSub
	opMul
	opDiv
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opBinaryEv // a = wfunc.BinOp, via wfunc.EvalBinary
)

// instr is one bytecode instruction: an opcode plus up to two operands
// (the second is used only by fused superinstructions).
type instr struct {
	op   Op
	a, b int32
}

// sendSite is the static part of one teleport Send statement.
type sendSite struct {
	portal     int
	handler    string
	nargs      int
	minLat     int
	maxLat     int
	bestEffort bool
}

// Program is a compiled work function: flat code, a constant pool, send
// sites, and the frame geometry the Machine must allocate. Programs are
// immutable and shared by every Machine (filter instance) running them.
type Program struct {
	name       string
	code       []instr
	consts     []float64
	sends      []sendSite
	spans      []spanInstr // operands of the opSpan instructions
	numLocals  int         // the function's locals, then the spans' hidden offset slots
	arraySizes []int
	maxStack   int
}

// Machine is the mutable execution frame for one Program: the operand
// stack, zero-initialized locals, and local arrays. One Machine per filter
// instance; Run fires the work function once.
type Machine struct {
	prog   *Program
	stack  []float64
	locals []float64
	arrays [][]float64
	state  *wfunc.State
}

// NewMachine allocates a frame sized for p.
func NewMachine(p *Program) *Machine {
	m := &Machine{
		prog:   p,
		stack:  make([]float64, p.maxStack),
		locals: make([]float64, p.numLocals),
		arrays: make([][]float64, len(p.arraySizes)),
	}
	for i, n := range p.arraySizes {
		m.arrays[i] = make([]float64, n)
	}
	return m
}

// SetState attaches the filter's field storage. Call again after a
// snapshot restore replaces the state object.
func (m *Machine) SetState(st *wfunc.State) { m.state = st }

// fail attaches the function name to an error, matching the interpreter's
// wrapping in wfunc.Exec.
func (m *Machine) fail(format string, args ...any) error {
	return fmt.Errorf("%s: %s", m.prog.name, fmt.Sprintf(format, args...))
}

// Run executes one invocation of the program: locals and local arrays are
// zeroed (IL frame semantics), then the bytecode runs to completion.
// in/out are the filter's tapes, msg receives teleport sends, and print
// receives println values (nil discards them).
func (m *Machine) Run(in, out wfunc.Tape, msg wfunc.Messenger, print func(float64)) error {
	var done int64
	return m.RunN(in, out, 1, &done, msg, print)
}

// RunN executes n invocations as Run's in one entry, the one dispatch loop,
// and counts each that completes in *fired: after an error or a panic,
// *fired has advanced by exactly the invocations that completed. A tape
// that is a *wfunc.Ring is bound as one, so its pops, peeks and pushes are
// direct, inlined calls; any other tape is used through the interface.
func (m *Machine) RunN(in, out wfunc.Tape, n int64, fired *int64, msg wfunc.Messenger, print func(float64)) error {
	rin, _ := in.(*wfunc.Ring)
	rout, _ := out.(*wfunc.Ring)
	p := m.prog
	code := p.code
	st := m.stack
	locals := m.locals
	var scalars []float64
	var fieldArrs [][]float64
	if m.state != nil {
		scalars = m.state.Scalars
		fieldArrs = m.state.Arrays
	}
	for ; n > 0; n-- {
		clear(locals)
		for _, arr := range m.arrays {
			clear(arr)
		}
		sp := 0
		for pc := 0; pc < len(code); {
			ins := code[pc]
			pc++
			switch ins.op {
			case opConst:
				st[sp] = p.consts[ins.a]
				sp++
			case opLoadLocal:
				st[sp] = locals[ins.a]
				sp++
			case opStoreLocal:
				sp--
				locals[ins.a] = st[sp]
			case opLoadField:
				st[sp] = scalars[ins.a]
				sp++
			case opStoreField:
				sp--
				scalars[ins.a] = st[sp]
			case opLoadLocalIdx:
				arr := m.arrays[ins.a]
				ix := int(st[sp-1])
				if ix < 0 || ix >= len(arr) {
					return m.fail("array index %d out of range [0,%d)", ix, len(arr))
				}
				st[sp-1] = arr[ix]
			case opStoreLocalIdx:
				arr := m.arrays[ins.a]
				ix := int(st[sp-1])
				if ix < 0 || ix >= len(arr) {
					return m.fail("array index %d out of range [0,%d)", ix, len(arr))
				}
				arr[ix] = st[sp-2]
				sp -= 2
			case opLoadFieldIdx:
				arr := fieldArrs[ins.a]
				ix := int(st[sp-1])
				if ix < 0 || ix >= len(arr) {
					return m.fail("array index %d out of range [0,%d)", ix, len(arr))
				}
				st[sp-1] = arr[ix]
			case opStoreFieldIdx:
				arr := fieldArrs[ins.a]
				ix := int(st[sp-1])
				if ix < 0 || ix >= len(arr) {
					return m.fail("array index %d out of range [0,%d)", ix, len(arr))
				}
				arr[ix] = st[sp-2]
				sp -= 2
			case opPeek:
				switch ix := int(st[sp-1]); {
				case rin != nil:
					st[sp-1] = rin.Peek(ix)
				case in != nil:
					st[sp-1] = in.Peek(ix)
				default:
					return m.fail("peek outside work function")
				}
			case opPopV:
				switch {
				case rin != nil:
					st[sp] = rin.Pop()
				case in != nil:
					st[sp] = in.Pop()
				default:
					return m.fail("pop outside work function")
				}
				sp++
			case opPopN:
				switch {
				case rin != nil:
					rin.Pop()
				case in != nil:
					in.Pop()
				default:
					return m.fail("pop outside work function")
				}
			case opPushV:
				sp--
				switch {
				case rout != nil:
					rout.Push(st[sp])
				case out != nil:
					out.Push(st[sp])
				default:
					return m.fail("push outside work function")
				}
			case opJump:
				pc = int(ins.a)
			case opJumpIfZero:
				sp--
				if st[sp] == 0 {
					pc = int(ins.a)
				}
			case opBool:
				if st[sp-1] != 0 {
					st[sp-1] = 1
				} else {
					st[sp-1] = 0
				}
			case opIncLocal:
				sp--
				locals[ins.a] += st[sp]
			case opPrint:
				sp--
				if print != nil {
					print(st[sp])
				}
			case opSend:
				if msg == nil {
					return m.fail("message send with no messenger attached")
				}
				site := &p.sends[ins.a]
				args := make([]float64, site.nargs)
				sp -= site.nargs
				copy(args, st[sp:sp+site.nargs])
				if err := msg.Send(site.portal, site.handler, args, site.minLat, site.maxLat, site.bestEffort); err != nil {
					return m.fail("%v", err)
				}

			case opPeekLocal:
				switch ix := int(locals[ins.a]); {
				case rin != nil:
					st[sp] = rin.Peek(ix)
				case in != nil:
					st[sp] = in.Peek(ix)
				default:
					return m.fail("peek outside work function")
				}
				sp++
			case opLoadLocalIdxL:
				arr := m.arrays[ins.a]
				ix := int(locals[ins.b])
				if ix < 0 || ix >= len(arr) {
					return m.fail("array index %d out of range [0,%d)", ix, len(arr))
				}
				st[sp] = arr[ix]
				sp++
			case opLoadFieldIdxL:
				arr := fieldArrs[ins.a]
				ix := int(locals[ins.b])
				if ix < 0 || ix >= len(arr) {
					return m.fail("array index %d out of range [0,%d)", ix, len(arr))
				}
				st[sp] = arr[ix]
				sp++
			case opJGeLC:
				// Counted-loop head: jump out unless locals < const. Written as
				// !(a < b) — not a >= b — so NaN bounds exit like the
				// interpreter's failed < comparison.
				if !(locals[ins.b&0xffff] < p.consts[ins.b>>16]) {
					pc = int(ins.a)
				}
			case opIncLocalC:
				locals[ins.a] += p.consts[ins.b]
			case opLoopLC:
				// Counted-loop back edge. The variable and bound are the ones
				// packed into the head the body sits under; v < bound — not
				// !(v >= bound) — so a NaN leaves the loop as it does there.
				h := code[ins.a-1].b
				locals[h&0xffff] += p.consts[ins.b]
				if locals[h&0xffff] < p.consts[h>>16] {
					pc = int(ins.a)
				}
			case opSpan:
				if m.span(&p.spans[ins.a], in, out) {
					pc = int(ins.b)
				}

			case opNeg:
				st[sp-1] = -st[sp-1]
			case opNot:
				if st[sp-1] == 0 {
					st[sp-1] = 1
				} else {
					st[sp-1] = 0
				}
			case opTrunc:
				st[sp-1] = wfunc.EvalUnary(wfunc.Trunc, st[sp-1])
			case opAbs:
				st[sp-1] = wfunc.EvalUnary(wfunc.Abs, st[sp-1])
			case opUnaryEv:
				st[sp-1] = wfunc.EvalUnary(wfunc.UnOp(ins.a), st[sp-1])

			case opAdd:
				st[sp-2] += st[sp-1]
				sp--
			case opSub:
				st[sp-2] -= st[sp-1]
				sp--
			case opMul:
				st[sp-2] *= st[sp-1]
				sp--
			case opDiv:
				st[sp-2] /= st[sp-1]
				sp--
			case opEq:
				st[sp-2] = b2f(st[sp-2] == st[sp-1])
				sp--
			case opNe:
				st[sp-2] = b2f(st[sp-2] != st[sp-1])
				sp--
			case opLt:
				st[sp-2] = b2f(st[sp-2] < st[sp-1])
				sp--
			case opLe:
				st[sp-2] = b2f(st[sp-2] <= st[sp-1])
				sp--
			case opGt:
				st[sp-2] = b2f(st[sp-2] > st[sp-1])
				sp--
			case opGe:
				st[sp-2] = b2f(st[sp-2] >= st[sp-1])
				sp--
			case opBinaryEv:
				st[sp-2] = wfunc.EvalBinary(wfunc.BinOp(ins.a), st[sp-2], st[sp-1])
				sp--

			default:
				return m.fail("invalid opcode %d at pc %d", ins.op, pc-1)
			}
		}
		*fired++
	}
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
