// Package sched computes execution schedules for flattened stream graphs:
// the steady-state repetition vector (from the synchronous-dataflow balance
// equations), the initialization schedule that primes peeking filters and
// feedback loops, an ordered steady-state schedule, and per-channel buffer
// bounds. It also implements the paper's operational-semantics extensions:
// the MAXITEMS live-item bound on the transition rule, and deadlock
// detection for under-delayed feedback loops.
package sched

import (
	"fmt"

	"streamit/internal/ir"
)

// Entry is a run of consecutive firings of one node in a schedule.
type Entry struct {
	Node  *ir.Node
	Count int
}

// Schedule is the complete execution plan for a graph.
type Schedule struct {
	Graph *ir.Graph
	// Reps[n.ID] is the number of firings of n per steady-state iteration.
	Reps []int
	// InitReps[n.ID] is the number of firings during initialization.
	InitReps []int
	// Init and Steady are ordered firing sequences; executing Init once and
	// then Steady repeatedly is a legal execution of the program.
	Init   []Entry
	Steady []Entry
	// BufCap[e.ID] is the maximum channel occupancy (in items) observed
	// over initialization plus two steady-state iterations; it bounds the
	// buffer requirement of this schedule.
	BufCap []int
}

// Options adjust schedule construction.
type Options struct {
	// MaxLiveItems, when positive, constrains the scheduler to never exceed
	// this many total un-popped items across all channels (the paper's
	// MAXITEMS transition-rule condition). Zero means unconstrained.
	MaxLiveItems int
}

// Compute builds the schedule for g with default options.
func Compute(g *ir.Graph) (*Schedule, error) {
	return ComputeOpts(g, Options{})
}

// ComputeOpts builds the schedule for g.
func ComputeOpts(g *ir.Graph, opt Options) (*Schedule, error) {
	reps, err := SteadyReps(g)
	if err != nil {
		return nil, err
	}
	initReps, err := initReps(g, reps)
	if err != nil {
		return nil, err
	}
	s := &Schedule{Graph: g, Reps: reps, InitReps: initReps}
	if err := s.order(opt); err != nil {
		return nil, err
	}
	return s, nil
}

// rational is an exact non-negative rational with small-term reduction.
type rational struct{ num, den int64 }

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a < 0 {
		return -a
	}
	return a
}

func (r rational) reduce() rational {
	g := gcd(r.num, r.den)
	if g == 0 {
		return rational{0, 1}
	}
	return rational{r.num / g, r.den / g}
}

func (r rational) mulFrac(num, den int64) (rational, error) {
	// Reduce eagerly to avoid overflow on deep graphs.
	g1 := gcd(r.num, den)
	g2 := gcd(num, r.den)
	if g1 == 0 {
		g1 = 1
	}
	if g2 == 0 {
		g2 = 1
	}
	n := (r.num / g1) * (num / g2)
	d := (r.den / g2) * (den / g1)
	if d == 0 {
		return rational{}, fmt.Errorf("zero denominator in rate computation")
	}
	if n < 0 || d < 0 || n > 1<<40 || d > 1<<40 {
		return rational{}, fmt.Errorf("repetition rates overflow; graph rates are badly matched")
	}
	return rational{n, d}.reduce(), nil
}

// SteadyReps solves the balance equations: for every edge u->v,
// reps[u]*push == reps[v]*pop. It returns the minimal positive integer
// solution, or an error when the rates are inconsistent (which manifests at
// runtime as unbounded buffer growth — the paper's overflow condition for
// mismatched split-join branches).
func SteadyReps(g *ir.Graph) ([]int, error) {
	if len(g.Nodes) == 0 {
		return nil, fmt.Errorf("empty graph")
	}
	for _, n := range g.Nodes {
		if k := n.KernelOf(); k != nil && k.Dynamic {
			return nil, fmt.Errorf("filter %s has dynamic rates; static scheduling requires constant rates (use the dynamic engine)", n.Name)
		}
	}
	rate := make([]rational, len(g.Nodes))
	visited := make([]bool, len(g.Nodes))

	for _, start := range g.Nodes {
		if visited[start.ID] {
			continue
		}
		rate[start.ID] = rational{1, 1}
		visited[start.ID] = true
		queue := []*ir.Node{start}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			check := func(other *ir.Node, want rational, e *ir.Edge) error {
				if !visited[other.ID] {
					rate[other.ID] = want
					visited[other.ID] = true
					queue = append(queue, other)
					return nil
				}
				have := rate[other.ID]
				if have.num*want.den != want.num*have.den {
					return fmt.Errorf("inconsistent data rates at channel %s: split-join branches produce items at different rates (steady-state buffer would grow without bound)", e)
				}
				return nil
			}
			for p, e := range n.Out {
				if e == nil {
					continue
				}
				push := int64(n.PushPort(p))
				pop := int64(e.Dst.PopPort(e.DstPort))
				if push == 0 || pop == 0 {
					return nil, fmt.Errorf("channel %s has a zero rate", e)
				}
				want, err := rate[n.ID].mulFrac(push, pop)
				if err != nil {
					return nil, err
				}
				if err := check(e.Dst, want, e); err != nil {
					return nil, err
				}
			}
			for p, e := range n.In {
				if e == nil {
					continue
				}
				pop := int64(n.PopPort(p))
				push := int64(e.Src.PushPort(e.SrcPort))
				if push == 0 || pop == 0 {
					return nil, fmt.Errorf("channel %s has a zero rate", e)
				}
				want, err := rate[n.ID].mulFrac(pop, push)
				if err != nil {
					return nil, err
				}
				if err := check(e.Src, want, e); err != nil {
					return nil, err
				}
			}
		}
	}

	// Scale to the minimal integer vector: multiply by lcm of denominators,
	// divide by gcd of numerators.
	var lcm int64 = 1
	for _, r := range rate {
		g := gcd(lcm, r.den)
		lcm = lcm / g * r.den
		if lcm > 1<<40 {
			return nil, fmt.Errorf("repetition rates overflow")
		}
	}
	var g0 int64
	nums := make([]int64, len(rate))
	for i, r := range rate {
		nums[i] = r.num * (lcm / r.den)
		g0 = gcd(g0, nums[i])
	}
	if g0 == 0 {
		g0 = 1
	}
	reps := make([]int, len(rate))
	for i := range reps {
		v := nums[i] / g0
		if v <= 0 || v > 1<<31 {
			return nil, fmt.Errorf("node %s has invalid repetition count %d", g.Nodes[i].Name, v)
		}
		reps[i] = int(v)
	}
	return reps, nil
}

// peekMargin is the number of items a node must keep buffered on its input
// beyond what it pops: peek-pop for filters, 0 for splitters/joiners.
func peekMargin(n *ir.Node) int {
	if n.Kind != ir.NodeFilter {
		return 0
	}
	k := n.Filter.Kernel
	return k.Peek - k.Pop
}

// initReps computes the initialization firing counts: after init, every
// channel into a peeking filter holds at least its peek-pop margin, so the
// steady state can repeat forever. The computation is a backwards fixpoint;
// feedback loops whose delay cannot satisfy the requirement diverge, which
// is reported as deadlock (the paper's deadlock-detection condition).
func initReps(g *ir.Graph, reps []int) ([]int, error) {
	init := make([]int, len(g.Nodes))
	// Divergence bound: a legal init schedule never fires a node more than
	// a few steady periods plus the firings needed to prime every peek
	// window in the graph. Feedback loops that keep demanding beyond this
	// are deadlocked.
	totalMargin := 0
	for _, n := range g.Nodes {
		totalMargin += peekMargin(n)
	}
	limit := func(n *ir.Node) int { return 10*reps[n.ID] + 2*totalMargin + 10 }

	changed := true
	for pass := 0; changed; pass++ {
		if pass > 4*len(g.Nodes)+16 {
			return nil, fmt.Errorf("deadlock: initialization requirements do not converge (feedback loop needs more delay)")
		}
		changed = false
		for _, v := range g.Nodes {
			for p, e := range v.In {
				if e == nil {
					continue
				}
				needed := init[v.ID]*v.PopPort(p) + marginOnEdge(v, p)
				req := needed - len(e.Initial)
				if req <= 0 {
					continue
				}
				u := e.Src
				push := u.PushPort(e.SrcPort)
				needFirings := (req + push - 1) / push
				if needFirings > init[u.ID] {
					if needFirings > limit(u) {
						return nil, fmt.Errorf("deadlock detected: %s would need %d init firings (feedback loop lacks sufficient delay)", u.Name, needFirings)
					}
					init[u.ID] = needFirings
					changed = true
				}
			}
		}
	}
	return init, nil
}

// marginOnEdge gives the post-init buffered-item requirement for input port
// p of node v. Filters have a single input carrying the peek margin.
func marginOnEdge(v *ir.Node, p int) int {
	if p == 0 {
		return peekMargin(v)
	}
	return 0
}

// Sim tracks item counts during abstract (value-free) execution of a graph.
// It is shared by the scheduler, the sdep computation, and verification.
type Sim struct {
	G *ir.Graph
	// Items[e.ID] is the current number of items buffered on edge e.
	Items []int
	// Fired[n.ID] counts total firings of node n.
	Fired []int
	// Pushed[e.ID] counts total items ever pushed onto edge e — the paper's
	// n(t) for tape t (initial feedback items count as pushed).
	Pushed []int64
}

// NewSim returns a fresh simulation state with feedback delays loaded.
func NewSim(g *ir.Graph) *Sim {
	s := &Sim{
		G:      g,
		Items:  make([]int, len(g.Edges)),
		Fired:  make([]int, len(g.Nodes)),
		Pushed: make([]int64, len(g.Edges)),
	}
	for _, e := range g.Edges {
		s.Items[e.ID] = len(e.Initial)
		s.Pushed[e.ID] = int64(len(e.Initial))
	}
	return s
}

// CanFire reports whether n has enough input available (peek-aware).
func (s *Sim) CanFire(n *ir.Node) bool {
	for p, e := range n.In {
		if e == nil {
			continue
		}
		if s.Items[e.ID] < n.PeekPort(p) {
			return false
		}
	}
	return true
}

// Fire updates counts for one firing of n. The caller must ensure CanFire.
func (s *Sim) Fire(n *ir.Node) {
	for p, e := range n.In {
		if e == nil {
			continue
		}
		s.Items[e.ID] -= n.PopPort(p)
	}
	for p, e := range n.Out {
		if e == nil {
			continue
		}
		s.Items[e.ID] += n.PushPort(p)
		s.Pushed[e.ID] += int64(n.PushPort(p))
	}
	s.Fired[n.ID]++
}

// Live returns the total number of buffered items across all channels.
func (s *Sim) Live() int {
	t := 0
	for _, v := range s.Items {
		t += v
	}
	return t
}

// order generates the Init and Steady entry sequences by simulating
// firings, and records buffer high-water marks.
func (s *Schedule) order(opt Options) error {
	g := s.Graph
	order, err := g.TopoOrder()
	if err != nil {
		return err
	}
	sim := NewSim(g)
	// An edge's occupancy rises only when its producer fires, so after a
	// firing only the fired node's output edges can set a new high.
	high := append([]int(nil), sim.Items...)
	note := func(n *ir.Node) {
		for _, e := range n.Out {
			if e != nil {
				high[e.ID] = max(high[e.ID], sim.Items[e.ID])
			}
		}
	}

	// runPhase fires each node until it reaches target[n], sweeping in
	// topological order; peeking and feedback make multiple sweeps
	// necessary. A sweep with no progress means deadlock.
	runPhase := func(target []int, out *[]Entry, phase string) error {
		remaining := 0
		for _, n := range g.Nodes {
			remaining += target[n.ID] - sim.Fired[n.ID]
		}
		for remaining > 0 {
			progress := 0
			for _, n := range order {
				count := 0
				for sim.Fired[n.ID] < target[n.ID] && sim.CanFire(n) {
					if opt.MaxLiveItems > 0 && sim.Live()-n.TotalPop()+n.TotalPush() > opt.MaxLiveItems {
						break
					}
					sim.Fire(n)
					note(n)
					count++
				}
				if count > 0 {
					*out = append(*out, Entry{Node: n, Count: count})
					progress += count
				}
			}
			if progress == 0 {
				if opt.MaxLiveItems > 0 {
					return fmt.Errorf("no valid %s schedule within MAXITEMS=%d live items", phase, opt.MaxLiveItems)
				}
				return fmt.Errorf("deadlock during %s schedule: no node can fire (starved input channel)", phase)
			}
			remaining -= progress
		}
		return nil
	}

	// Init phase.
	target := make([]int, len(g.Nodes))
	copy(target, s.InitReps)
	if err := runPhase(target, &s.Init, "initialization"); err != nil {
		return err
	}

	// Two steady phases: the first is recorded as the steady schedule, the
	// second verifies periodicity and captures cross-period buffer peaks.
	after := append([]int(nil), sim.Items...)
	for i, n := range g.Nodes {
		target[i] = sim.Fired[n.ID] + s.Reps[n.ID]
	}
	if err := runPhase(target, &s.Steady, "steady-state"); err != nil {
		return err
	}
	for e := range g.Edges {
		if sim.Items[e] != after[e] {
			return fmt.Errorf("internal error: steady state did not return channel %s to its post-init occupancy", g.Edges[e])
		}
	}
	var scratch []Entry
	for i, n := range g.Nodes {
		target[i] = sim.Fired[n.ID] + s.Reps[n.ID]
	}
	if err := runPhase(target, &scratch, "steady-state verification"); err != nil {
		return err
	}
	s.BufCap = high
	return nil
}

// TotalFirings returns the number of firings in one steady iteration.
func (s *Schedule) TotalFirings() int {
	t := 0
	for _, r := range s.Reps {
		t += r
	}
	return t
}

// ItemsPerSteady returns the number of items crossing edge e per steady
// iteration.
func (s *Schedule) ItemsPerSteady(e *ir.Edge) int {
	return s.Reps[e.Src.ID] * e.Src.PushPort(e.SrcPort)
}
