package exec

import (
	"fmt"

	"streamit/internal/vm"
	"streamit/internal/wfunc"
)

// Backend selects the work-function execution substrate shared by the
// sequential and mapped engines. The zero value is the bytecode VM, so
// engines default to the fast path.
type Backend int

const (
	// BackendVM compiles each work function to internal/vm bytecode and
	// falls back to the tree-walking interpreter for any function the
	// compiler rejects. Output is bit-identical to the interpreter.
	BackendVM Backend = iota
	// BackendInterp forces the tree-walking interpreter everywhere.
	BackendInterp
)

// String implements fmt.Stringer.
func (b Backend) String() string {
	switch b {
	case BackendVM:
		return "vm"
	case BackendInterp:
		return "interp"
	}
	return fmt.Sprintf("backend(%d)", int(b))
}

// ParseBackend maps the user-facing names (as used by the -backend flag)
// onto Backend values.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "vm":
		return BackendVM, nil
	case "interp", "interpreter":
		return BackendInterp, nil
	}
	return 0, fmt.Errorf("exec: unknown backend %q (want \"vm\" or \"interp\")", s)
}

// workRunner executes one filter instance's work function on the selected
// backend. It owns the per-instance frame (interpreter Env or VM Machine)
// so firing allocates nothing.
type workRunner struct {
	work *wfunc.Func
	env  *wfunc.Env  // interpreter frame; nil when the VM path is active
	mach *vm.Machine // VM frame; nil when the interpreter path is active
}

// newWorkRunnerCompiled builds a runner around a pre-compiled VM program
// (nil selects the interpreter), binding it to the instance state st. This
// is the allocation-light path: a shared artifact bundle compiles each
// kernel once and every engine stamps frames from it.
func newWorkRunnerCompiled(k *wfunc.Kernel, st *wfunc.State, prog *vm.Program) *workRunner {
	if prog != nil {
		m := vm.NewMachine(prog)
		m.SetState(st)
		return &workRunner{work: k.Work, mach: m}
	}
	env := wfunc.NewEnv(k.Work)
	env.State = st
	return &workRunner{work: k.Work, env: env}
}

// run fires the work function once against the given tapes.
func (r *workRunner) run(in, out wfunc.Tape, msg wfunc.Messenger, print func(float64)) error {
	if r.mach != nil {
		return r.mach.Run(in, out, msg, print)
	}
	env := r.env
	env.Reset()
	env.In, env.Out = in, out
	env.Msg = msg
	env.Print = print
	return wfunc.Exec(r.work, env)
}

// setState rebinds the runner to a replacement state object (snapshot
// restore).
func (r *workRunner) setState(st *wfunc.State) {
	if r.mach != nil {
		r.mach.SetState(st)
		return
	}
	r.env.State = st
}
