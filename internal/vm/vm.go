// Package vm executes work-function IL as flat register code instead of
// walking the statement/expression tree. The compiler (compile.go) lowers a
// wfunc.Func — after constant folding — into three-address instructions
// over one register file per Machine: the frame's locals, then temporaries,
// then the program's constants. A constant or a local is its own register,
// so reading one costs no instruction; short-circuit control flow becomes
// jumps, and tape, field and array accesses are explicit instructions with
// register operands. The Machine here runs that code against the same
// wfunc.Tape / wfunc.Messenger interfaces the interpreter uses, binding a
// wfunc.Ring (every engine's tape) as one.
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
// arrays (map.go). The dot products of a FIR's firings and of a matrix's
// rows run four rows at a time, as one nest (dot.go).
package vm

import (
	"fmt"
	"math"

	"streamit/internal/wfunc"
)

// Op is an opcode. The zero value is invalid so that sparse
// operator-mapping tables fail loudly on unmapped entries.
type Op uint8

// Opcodes. r is the register file; d, a and b are register operands, k is
// the one operand that is not a register: a field, array, send-site or
// span index, an absolute jump target, or a wfunc operator. Logical && and
// || have no opcodes because the compiler lowers their short-circuit
// evaluation into jumps.
const (
	opInvalid Op = iota

	opMov           // r[d] = r[a]
	opLoadField     // r[d] = state.Scalars[k]
	opStoreField    // state.Scalars[k] = r[a]
	opLoadLocalIdx  // r[d] = arrays[k][int(r[a])]
	opStoreLocalIdx // arrays[k][int(r[b])] = r[a]
	opLoadFieldIdx  // r[d] = state.Arrays[k][int(r[a])]
	opStoreFieldIdx // state.Arrays[k][int(r[b])] = r[a]
	opPeek          // r[d] = in.Peek(int(r[a]))
	opPopV          // r[d] = in.Pop()
	opPopN          // in.Pop(), value discarded
	opPushV         // out.Push(r[a])
	opJump          // pc = k
	opJumpIfZero    // if r[a] == 0 { pc = k }
	opFor           // r[d] = r[a]; if !(r[d] < r[b]) { pc = k }: a counted loop's head
	opLoop          // r[d] += r[a]; if r[d] < r[b] { pc = k }: its back edge
	opBool          // r[d] = r[a] != 0 ? 1 : 0
	opPrint         // print hook gets r[a]
	opMessenger     // fault unless a messenger is attached: a send's first step
	opSend          // deliver sends[k] with the arguments r[a : a+nargs]

	// The span instruction (span.go) sits in front of a counted loop's
	// ordinary code. It sets the loop variable r[d] = r[a]; then, if the
	// guard of spans[k] holds, it runs the whole loop natively and jumps to
	// the span's exit, the instruction behind the loop.
	opSpan

	// Unary operators, r[d] = op r[a] (dedicated opcodes run the cheap ones
	// in the dispatch loop; the rest delegate to wfunc.EvalUnary).
	opNeg
	opNot
	opAbs
	opUnaryEv // k = wfunc.UnOp, via wfunc.EvalUnary

	// Binary operators, r[d] = r[a] op r[b].
	opAdd
	opSub
	opMul
	opDiv
	opMulAcc // r[d] += r[a] * r[b], the product rounded first
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opBinaryEv // k = wfunc.BinOp, via wfunc.EvalBinary
)

// instr is one three-address instruction.
type instr struct {
	op      Op
	d, a, b int32
	k       int32
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
	row        *dotNest    // the row kernel's nest, nil when the program is none
	numLocals  int         // the function's locals, then the spans' hidden offset slots
	frame      int         // numLocals plus the temporaries: the registers a firing zeroes
	arraySizes []int
}

// Machine is the mutable execution frame for one Program: the register
// file and the local arrays. One Machine per filter instance; Run fires
// the work function once.
type Machine struct {
	prog *Program
	// regs is the register file: the locals, which spans address
	// directly, then the temporaries, then the constants.
	regs   []float64
	arrays [][]float64
	state  *wfunc.State
}

// hooks is what RunN was handed besides the rings, for slow.
type hooks struct {
	in, out wfunc.Tape
	msg     wfunc.Messenger
	print   func(float64)
}

// NewMachine allocates a frame sized for p, with its constants in place.
func NewMachine(p *Program) *Machine {
	m := &Machine{
		prog:   p,
		regs:   make([]float64, p.frame+len(p.consts)),
		arrays: make([][]float64, len(p.arraySizes)),
	}
	copy(m.regs[p.frame:], p.consts)
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

// indexFault is the interpreter's error for an array index out of range.
func (m *Machine) indexFault(ix int, arr []float64) error {
	return m.fail("array index %d out of range [0,%d)", ix, len(arr))
}

// Run executes one invocation of the program: locals, temporaries and
// local arrays are zeroed (IL frame semantics), then the code runs to
// completion. in/out are the filter's tapes, msg receives teleport sends,
// and print receives println values (nil discards them).
func (m *Machine) Run(in, out wfunc.Tape, msg wfunc.Messenger, print func(float64)) error {
	var done int64
	return m.RunN(in, out, 1, &done, msg, print)
}

// RunN executes n invocations as Run's in one entry, the one dispatch loop,
// and counts each that completes in *fired: after an error or a panic,
// *fired has advanced by exactly the invocations that completed. A tape
// that is a *wfunc.Ring is bound as one, so its pops, peeks and pushes are
// direct, inlined calls; any other tape is used through the interface.
//
// The dispatch loop holds only what its call-free instructions use, so Go
// keeps that in registers. Every instruction that calls out — an operator
// of wfunc's, a span, a send, a tape that is not a ring — goes through
// slow, which takes the pc and hands it back, so that nothing the loop
// holds lives across the call.
func (m *Machine) RunN(in, out wfunc.Tape, n int64, fired *int64, msg wfunc.Messenger, print func(float64)) error {
	h := hooks{in, out, msg, print}
	rin, _ := in.(*wfunc.Ring)
	rout, _ := out.(*wfunc.Ring)
	code := m.prog.code
	r := m.regs
	for ; n > 0; n-- {
		clear(r[:m.prog.frame])
		for _, arr := range m.arrays {
			clear(arr)
		}
		for pc := 0; pc < len(code); {
			ins := &code[pc]
			pc++
			switch ins.op {
			case opMov:
				r[ins.d] = r[ins.a]
			case opLoadField:
				r[ins.d] = m.state.Scalars[ins.k]
			case opStoreField:
				m.state.Scalars[ins.k] = r[ins.a]
			case opLoadLocalIdx:
				arr := m.arrays[ins.k]
				ix := int(r[ins.a])
				if ix < 0 || ix >= len(arr) {
					return m.indexFault(ix, arr)
				}
				r[ins.d] = arr[ix]
			case opStoreLocalIdx:
				arr := m.arrays[ins.k]
				ix := int(r[ins.b])
				if ix < 0 || ix >= len(arr) {
					return m.indexFault(ix, arr)
				}
				arr[ix] = r[ins.a]
			case opLoadFieldIdx:
				arr := m.state.Arrays[ins.k]
				ix := int(r[ins.a])
				if ix < 0 || ix >= len(arr) {
					return m.indexFault(ix, arr)
				}
				r[ins.d] = arr[ix]
			case opStoreFieldIdx:
				arr := m.state.Arrays[ins.k]
				ix := int(r[ins.b])
				if ix < 0 || ix >= len(arr) {
					return m.indexFault(ix, arr)
				}
				arr[ix] = r[ins.a]
			case opPeek:
				if rin == nil {
					goto slow
				}
				r[ins.d] = rin.Peek(int(r[ins.a]))
			case opPopV:
				if rin == nil {
					goto slow
				}
				r[ins.d] = rin.Pop()
			case opPopN:
				if rin == nil {
					goto slow
				}
				rin.Pop()
			case opPushV:
				if rout == nil {
					goto slow
				}
				rout.Push(r[ins.a])
			case opJump:
				pc = int(ins.k)
			case opJumpIfZero:
				if r[ins.a] == 0 {
					pc = int(ins.k)
				}
			case opFor:
				// !(v < bound), not v >= bound, so that a NaN leaves the
				// loop like the interpreter's failed < comparison.
				r[ins.d] = r[ins.a]
				if !(r[ins.d] < r[ins.b]) {
					pc = int(ins.k)
				}
			case opLoop:
				r[ins.d] += r[ins.a]
				if r[ins.d] < r[ins.b] {
					pc = int(ins.k)
				}
			case opBool:
				r[ins.d] = b2f(r[ins.a] != 0)
			case opNeg:
				r[ins.d] = -r[ins.a]
			case opNot:
				r[ins.d] = b2f(r[ins.a] == 0)
			case opAbs:
				r[ins.d] = math.Abs(r[ins.a]) // wfunc.EvalUnary's, inlined
			case opAdd:
				r[ins.d] = r[ins.a] + r[ins.b]
			case opSub:
				r[ins.d] = r[ins.a] - r[ins.b]
			case opMul:
				r[ins.d] = r[ins.a] * r[ins.b]
			case opDiv:
				r[ins.d] = r[ins.a] / r[ins.b]
			case opMulAcc:
				// The conversion keeps Go from fusing the multiply into the
				// add, which would round once where the interpreter rounds
				// twice.
				r[ins.d] += float64(r[ins.a] * r[ins.b])
			case opEq:
				r[ins.d] = b2f(r[ins.a] == r[ins.b])
			case opNe:
				r[ins.d] = b2f(r[ins.a] != r[ins.b])
			case opLt:
				r[ins.d] = b2f(r[ins.a] < r[ins.b])
			case opLe:
				r[ins.d] = b2f(r[ins.a] <= r[ins.b])
			case opGt:
				r[ins.d] = b2f(r[ins.a] > r[ins.b])
			case opGe:
				r[ins.d] = b2f(r[ins.a] >= r[ins.b])
			default:
				goto slow
			}
			continue
		slow:
			var err error
			if pc, err = m.slow(&h, ins, pc); err != nil {
				return err
			}
		}
		*fired++
	}
	return nil
}

// slow runs one instruction that calls out, or a tape operation on a tape
// that is not a ring, and returns the next pc.
func (m *Machine) slow(h *hooks, ins *instr, pc int) (int, error) {
	r := m.regs
	switch ins.op {
	case opPeek:
		if h.in == nil {
			return 0, m.fail("peek outside work function")
		}
		r[ins.d] = h.in.Peek(int(r[ins.a]))
	case opPopV:
		if h.in == nil {
			return 0, m.fail("pop outside work function")
		}
		r[ins.d] = h.in.Pop()
	case opPopN:
		if h.in == nil {
			return 0, m.fail("pop outside work function")
		}
		h.in.Pop()
	case opPushV:
		if h.out == nil {
			return 0, m.fail("push outside work function")
		}
		h.out.Push(r[ins.a])
	case opPrint:
		if h.print != nil {
			h.print(r[ins.a])
		}
	case opMessenger:
		if h.msg == nil {
			return 0, m.fail("message send with no messenger attached")
		}
	case opSend:
		site := &m.prog.sends[ins.k]
		args := make([]float64, site.nargs)
		copy(args, r[ins.a:])
		if err := h.msg.Send(site.portal, site.handler, args, site.minLat, site.maxLat, site.bestEffort); err != nil {
			return 0, m.fail("%v", err)
		}
	case opSpan:
		r[ins.d] = r[ins.a]
		if s := &m.prog.spans[ins.k]; m.span(s, h.in, h.out) {
			return int(s.exit), nil
		}
	case opUnaryEv:
		r[ins.d] = wfunc.EvalUnary(wfunc.UnOp(ins.k), r[ins.a])
	case opBinaryEv:
		r[ins.d] = wfunc.EvalBinary(wfunc.BinOp(ins.k), r[ins.a], r[ins.b])
	default:
		return 0, m.fail("invalid opcode %d at pc %d", ins.op, pc-1)
	}
	return pc, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
