package exec

import (
	"fmt"
	"slices"

	"streamit/internal/ir"
	"streamit/internal/obs"
	"streamit/internal/sched"
	"streamit/internal/vm"
	"streamit/internal/wfunc"
)

// Shared is the immutable compiled-artifact bundle for one graph and
// schedule: work functions compiled to VM bytecode once per kernel,
// post-init field-state prototypes, messaging constraints derived once,
// and ring-buffer geometry sized from the schedule's observed high-water
// marks. Many engines are stamped out of one Shared — construction clones
// small state vectors and allocates tapes, nothing else — which is what
// lets a multi-tenant server hold thousands of concurrent sessions of the
// same program (see internal/serve). A Shared is safe for concurrent use
// by any number of goroutines; the engines it produces are each
// single-owner, like engines always were.
type Shared struct {
	G   *ir.Graph
	Sch *sched.Schedule
	// Backend is the work-function substrate every engine from this Shared
	// uses (the VM programs are compiled at bundle build time).
	Backend Backend

	// fp is the graph fingerprint, hashed once for every engine stamped
	// from this bundle.
	fp uint64
	// progs[n.ID] is the node's compiled VM program; nil when the node is
	// not a filter, the backend is the interpreter, or compilation fell
	// back. Programs are immutable and shared by every engine's Machines.
	progs []*vm.Program
	// protos[n.ID] is the filter's field state after its init function ran
	// (init is deterministic IL, so it runs once here). Every engine holds
	// the proto itself of a filter no firing writes, and a clone of any
	// other: writes[n.ID] is writesState(n).
	protos []*wfunc.State
	writes []bool
	// sends[n.ID] marks filters whose work function sends teleport
	// messages; only those engines' nodes carry a messenger.
	sends []bool
	// ringCap[e.ID] is the initial tape ring capacity in items: the
	// schedule's buffer high-water mark (rings still grow on demand, so
	// dynamic messaging schedules that run ahead stay correct).
	ringCap []int

	constraints []constraint
	// topo is the topological order the data-driven loop passes in; nil
	// when no engine of this bundle runs it (a schedule, no constraints).
	topo []*ir.Node
	// block is the sequential engine's block (blockOf); 0 without a
	// schedule.
	block int64
}

// NewShared compiles the reusable execution artifacts for g under the
// given backend. The work is everything expensive about engine
// construction: VM compilation per kernel, init-function interpretation,
// and constraint derivation. s is nil for a graph with dynamic rates, which
// has none: its rings start at their consumer's peek window, its engines
// have no fingerprint and run by RunItems, and it may have no teleport
// messaging (its delivery assumes static rates, as the paper notes).
func NewShared(g *ir.Graph, s *sched.Schedule, backend Backend) (*Shared, error) {
	if s == nil && (len(g.Portals) > 0 || len(g.Constraints) > 0) {
		return nil, fmt.Errorf("exec: dynamic-rate execution does not support teleport messaging or MAX_LATENCY")
	}
	sh := &Shared{
		G:       g,
		Sch:     s,
		Backend: backend,
		progs:   make([]*vm.Program, len(g.Nodes)),
		protos:  make([]*wfunc.State, len(g.Nodes)),
		writes:  make([]bool, len(g.Nodes)),
		sends:   make([]bool, len(g.Nodes)),
		ringCap: make([]int, len(g.Edges)),
	}
	for _, edge := range g.Edges {
		c := edge.Dst.PeekPort(edge.DstPort)
		if s != nil {
			c = s.BufCap[edge.ID]
		}
		sh.ringCap[edge.ID] = max(c, len(edge.Initial))
	}
	if s != nil {
		sh.fp, sh.block = GraphFingerprint(g, s), blockOf(g, s)
	}
	// Fission replicas and fused partitions can share one kernel object;
	// compile each distinct work function once.
	compiled := map[*wfunc.Func]*vm.Program{}
	for _, n := range g.Nodes {
		if n.Kind != ir.NodeFilter {
			continue
		}
		k := n.Filter.Kernel
		st := k.NewState()
		// Init always runs on the interpreter: it fires once per program,
		// so compilation would cost more than it saves.
		if k.Init != nil {
			initEnv := wfunc.NewEnv(k.Init)
			initEnv.State = st
			if err := wfunc.Exec(k.Init, initEnv); err != nil {
				return nil, fmt.Errorf("init of %s: %w", n.Name, err)
			}
		}
		sh.protos[n.ID], sh.writes[n.ID] = st, writesState(n)
		sh.sends[n.ID] = wfunc.SendsMessages(k.Work)
		if backend == BackendVM && n.Filter.WorkFn == nil {
			if p, ok := compiled[k.Work]; ok {
				sh.progs[n.ID] = p
			} else if p, err := vm.Compile(k.Work); err == nil {
				compiled[k.Work] = p
				sh.progs[n.ID] = p
			} else {
				// Uncompilable work functions fall back to the interpreter;
				// remember the failure so replicas do not retry.
				compiled[k.Work] = nil
			}
		}
	}
	var err error
	if sh.constraints, err = deriveConstraints(g); err != nil {
		return nil, err
	}
	if s == nil || len(sh.constraints) > 0 {
		if sh.topo, err = g.TopoOrder(); err != nil {
			return nil, err
		}
	}
	return sh, nil
}

// Fingerprint is the hash of the bundle's graph and schedule structure; it
// equals the fingerprint of every engine built from this Shared.
func (sh *Shared) Fingerprint() uint64 { return sh.fp }

// NewEngine stamps out one engine instance from the shared artifacts.
// Construction is allocation-light: tape rings at their schedule high-water
// marks, the field states a firing can write cloned, and one VM frame per
// filter. opts.Backend is ignored — the bundle's backend applies (its
// programs were compiled for it).
func (sh *Shared) NewEngine(opts Options) (*Engine, error) {
	opts.Backend = sh.Backend
	e := &Engine{
		G:           sh.G,
		Sch:         sh.Sch,
		Backend:     sh.Backend,
		fp:          sh.fp,
		protos:      sh.protos,
		chans:       make([]*wfunc.Ring, len(sh.G.Edges)),
		constrained: len(sh.constraints) > 0,
		sends:       slices.Contains(sh.sends, true),
		block:       sh.block,
		ahead:       4096,
		teleport: teleport{g: sh.G, sch: sh.Sch, constraints: sh.constraints,
			pending: make([][]*message, len(sh.G.Nodes))},
	}
	e.core = core{eng: e, nodes: make([]*nodeRT, len(sh.G.Nodes)), msgs: &e.teleport}
	if sh.topo != nil {
		e.spec = make([]speculation, len(sh.G.Nodes))
	}
	e.host = &e.core
	for _, edge := range sh.G.Edges {
		ch := wfunc.NewRing(sh.ringCap[edge.ID])
		for _, v := range edge.Initial {
			ch.Push(v)
		}
		e.chans[edge.ID] = ch
	}
	for _, n := range sh.G.Nodes {
		rt := &nodeRT{node: n}
		if n.Kind == ir.NodeFilter {
			k := n.Filter.Kernel
			if rt.state = sh.protos[n.ID]; sh.writes[n.ID] {
				rt.state = rt.state.Clone()
			}
			rt.runner = newWorkRunnerCompiled(k, rt.state, sh.progs[n.ID])
			if sh.sends[n.ID] {
				rt.msg = &sender{t: &e.teleport, node: n}
			}
			name := n.Name
			rt.print = func(v float64) {
				if e.Printer != nil {
					e.Printer(name, v)
				}
			}
			if k.Dynamic && n.InEdge() != nil {
				e.spec[n.ID].on = true
				if sh.writes[n.ID] {
					e.spec[n.ID].keep = rt.state.Clone()
				}
			}
		}
		e.nodes[n.ID] = rt
	}
	for _, n := range sh.topo {
		e.order = append(e.order, e.nodes[n.ID])
		if in := n.InEdge(); sh.Sch == nil && in != nil && n.IsSink() {
			e.sinks = append(e.sinks, e.chans[in.ID])
		}
	}
	if sh.Sch == nil && opts.OnError.Active() {
		return nil, fmt.Errorf("exec: recovery policies need declared rates, which a dynamic-rate filter does not have")
	}
	sup, err := newSupervisor(sh.G, opts)
	if err != nil {
		return nil, err
	}
	e.sup = sup
	if sh.Sch == nil && len(e.sinks) == 0 {
		return nil, fmt.Errorf("exec: dynamic execution needs at least one sink to count output")
	}
	var prof *obs.Profiler
	if opts.Profile {
		prof = obs.NewProfiler(nodeNames(sh.G))
	}
	e.adoptObs(prof, opts.Trace)
	return e, nil
}

// writesState reports whether a firing of filter n can write its field
// state: a native WorkFn may, and so may IL whose work function or a message
// handler assigns a field.
func writesState(n *ir.Node) bool { return n.Filter.WorkFn != nil || n.IsStateful() }

// deriveConstraints statically scans kernels for Send statements and
// combines them with portal registrations and MAX_LATENCY directives to
// produce the schedule constraints of the paper's operational semantics,
// each with its progress tapes and rates resolved once. The sequential
// engine (via Shared) and the pipelined mapped engine share it.
func deriveConstraints(g *ir.Graph) ([]constraint, error) {
	var out []constraint
	// Map portal ID -> receiver nodes.
	recvs := map[int][]*ir.Node{}
	for _, p := range g.Portals {
		for _, f := range p.Receivers {
			n := g.FilterNode[f]
			if n == nil {
				return nil, fmt.Errorf("portal %s receiver %s not in graph", p.Name, f.Kernel.Name)
			}
			recvs[p.ID] = append(recvs[p.ID], n)
		}
	}
	for _, n := range g.Nodes {
		if n.Kind != ir.NodeFilter {
			continue
		}
		for _, s := range wfunc.Sends(n.Filter.Kernel.Work) {
			if s.BestEffort {
				continue
			}
			for _, r := range recvs[s.Portal] {
				if r == n {
					return nil, fmt.Errorf("filter %s sends messages to itself", n.Name)
				}
				up := g.Downstream(r, n)
				down := g.Downstream(n, r)
				if !up && !down {
					return nil, fmt.Errorf("message from %s to %s: receivers running in parallel with the sender are not supported", n.Name, r.Name)
				}
				out = append(out, constraint{
					sender: n, receiver: r, latency: s.MinLatency, upstream: up,
				})
			}
		}
	}
	for _, lc := range g.Constraints {
		a := g.FilterNode[lc.Upstream]
		b := g.FilterNode[lc.Downstream]
		if a == nil || b == nil {
			return nil, fmt.Errorf("MAX_LATENCY references a filter outside the graph")
		}
		if !g.Downstream(a, b) {
			return nil, fmt.Errorf("MAX_LATENCY(%s, %s): first filter must be upstream of second", a.Name, b.Name)
		}
		// MAX_LATENCY(A,B,n) acts as a message from B to upstream A.
		out = append(out, constraint{
			sender: b, receiver: a, latency: lc.Latency, upstream: true,
		})
	}
	for i := range out {
		c := &out[i]
		c.tapeA, c.tapeB = progressTapeOf(c.sender), progressTapeOf(c.receiver)
		if c.tapeA == nil || c.tapeB == nil {
			return nil, fmt.Errorf("message from %s to %s: an endpoint has no tapes", c.sender.Name, c.receiver.Name)
		}
		c.pushA, c.pushB = progressRateOf(c.sender), progressRateOf(c.receiver)
	}
	return out, nil
}

// OverrideWork replaces the named filter's work function for this engine
// instance only. The override fires in place of the kernel (and of any
// native WorkFn); it must respect the kernel's static rates — pop exactly
// its pop count and push exactly its push count per firing — or the run
// surfaces a structured *ExecError. This is the per-session input hook of
// the streaming server: a served session's source filter is overridden to
// push items fed over the wire, while every other session keeps the
// program's own source. Call before Run.
func (e *Engine) OverrideWork(name string, fn func(in, out wfunc.Tape)) error {
	rt := e.filter(name)
	if rt == nil {
		return fmt.Errorf("exec: override target %q is not a filter in the graph", name)
	}
	rt.override = fn
	return nil
}
