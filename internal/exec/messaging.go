package exec

import (
	"fmt"

	"streamit/internal/ir"
	"streamit/internal/obs"
	"streamit/internal/sched"
	"streamit/internal/sdep"
	"streamit/internal/wfunc"
)

// msgHost is the engine side of teleport messaging: where a node stands on
// its progress tape right now (n(O) for producers, items consumed for
// sinks), and the kernel state its handlers run against. The firing core
// is the one host: every engine's rings count positions, so the sequential
// and the pipelined mapped engine read the same live counters.
type msgHost interface {
	tapeProgress(n *ir.Node) int64
	kernelState(n *ir.Node) *wfunc.State
}

// teleport is the teleport-messaging runtime: the paper's delivery rules
// (equations 2 and 3) and schedule constraints (mc1/mc2), stated once for
// every engine that hosts messaging. Engines embed it and point host at
// their firing core.
type teleport struct {
	g    *ir.Graph
	sch  *sched.Schedule
	host msgHost
	// constraints are the static latency constraints derived from Send
	// statements and MAX_LATENCY directives.
	constraints []constraint
	// pending teleport messages, keyed by receiver node ID; nil on a mapped
	// plan whose graph has no messaging.
	pending [][]*message
	// calc is built on first use: only messaging consults it, so the
	// allocation (and its memo tables) is skipped entirely for the common
	// message-free program.
	calc *sdep.Calc
	// trace receives delivery instants; nil when tracing is off.
	trace *obs.Recorder
}

func (t *teleport) sdepCalc() *sdep.Calc {
	if t.calc == nil {
		t.calc = sdep.NewCalc(t.g, t.sch)
	}
	return t.calc
}

// miTapes computes mi{a->progress of bNode}(x). When a and b are the same
// edge, bNode is a sink consuming directly from a: x items of progress
// require x plus its peek margin to appear on the tape.
func (t *teleport) miTapes(a, b *ir.Edge, bNode *ir.Node, x int64) (int64, error) {
	if a == b {
		if x <= 0 {
			return 0, nil
		}
		return x + sinkMargin(bNode), nil
	}
	return t.sdepCalc().Mi(a, b, x)
}

// maTapes computes ma{a->progress of bNode}(x). When a and b are the same
// edge, bNode is a sink consuming directly from a: with x items on the tape
// it can consume floor((x-margin)/pop)*pop items.
func (t *teleport) maTapes(a, b *ir.Edge, bNode *ir.Node, x int64) (int64, error) {
	if a == b {
		pop := int64(bNode.TotalPop())
		m := sinkMargin(bNode)
		if x < m+pop || pop == 0 {
			return 0, nil
		}
		return (x - m) / pop * pop, nil
	}
	return t.sdepCalc().Ma(a, b, x)
}

// wavefront is where c's receiver stands on its progress tape when a message
// its sender sends at progress s is due: mi{O_B->O_A}(s + push_A*λ) upstream,
// ma{O_A->O_B}(s + push_A*(λ-1)) downstream (equations 2 and 3; mc1/mc2).
func (t *teleport) wavefront(c *constraint, s int64) (int64, error) {
	if c.upstream {
		return t.miTapes(c.tapeB, c.tapeA, c.sender, s+c.pushA*int64(c.latency))
	}
	return t.maTapes(c.tapeA, c.tapeB, c.receiver, s+c.pushA*int64(c.latency-1))
}

// blocking returns the first constraint whose receiver is n that firing n
// would break (mc1/mc2): the firing must not advance n's progress tape past
// the wavefront of a message the (potential) sender could still send. Nil
// when n may fire.
func (t *teleport) blocking(n *ir.Node) (*constraint, error) {
	for i := range t.constraints {
		c := &t.constraints[i]
		if c.receiver != n {
			continue
		}
		bound, err := t.wavefront(c, t.host.tapeProgress(c.sender))
		if err != nil {
			return nil, err
		}
		if t.host.tapeProgress(n)+c.pushB > bound {
			return c, nil
		}
	}
	return nil, nil
}

// sender adapts the messaging runtime to the wfunc.Messenger interface for
// one filter.
type sender struct {
	t    *teleport
	node *ir.Node
}

// Send implements wfunc.Messenger. The message is scheduled for delivery to
// every receiver registered with the portal:
//
//   - receiver upstream of the sender: delivered immediately after the
//     receiver's work invocation that makes n(O_B) reach
//     mi{O_B->O_A}(s + push_A*λ)   (paper equation 2);
//
//   - receiver downstream: delivered immediately before the invocation that
//     would push n(O_B) past ma{O_A->O_B}(s + push_A*(λ-1))   (equation 3);
//
// where s is n(O_A) at send time and λ the message latency. Best-effort
// messages are delivered before the receiver's next firing.
func (s *sender) Send(portal int, handler string, args []float64, minLat, maxLat int, bestEffort bool) error {
	t := s.t
	if portal < 0 || portal >= len(t.g.Portals) {
		return fmt.Errorf("filter %s sends to unknown portal %d", s.node.Name, portal)
	}
	p := t.g.Portals[portal]
	for _, f := range p.Receivers {
		r := t.g.FilterNode[f]
		if r == nil {
			return fmt.Errorf("portal %s receiver %s not in graph", p.Name, f.Kernel.Name)
		}
		if _, ok := f.Kernel.Handlers[handler]; !ok {
			return fmt.Errorf("portal %s receiver %s has no handler %q", p.Name, f.Kernel.Name, handler)
		}
		m := &message{handler: handler, args: args, bestEffort: bestEffort}
		if !bestEffort {
			k := constraint{sender: s.node, receiver: r, latency: minLat, upstream: t.g.Downstream(r, s.node),
				tapeA: progressTapeOf(s.node), tapeB: progressTapeOf(r), pushA: progressRateOf(s.node)}
			if !k.upstream && !t.g.Downstream(s.node, r) {
				return fmt.Errorf("message from %s to %s: parallel receivers are beyond this implementation (as in the paper)", s.node.Name, r.Name)
			}
			target, err := t.wavefront(&k, t.host.tapeProgress(s.node))
			if err != nil {
				return err
			}
			if t.host.tapeProgress(r) > target {
				dir, hint := "downstream", ""
				if k.upstream {
					dir, hint = "upstream", " (add a MAX_LATENCY constraint)"
				}
				return fmt.Errorf("message from %s to %s %s with latency %d is undeliverable: receiver already past the wavefront%s", s.node.Name, dir, r.Name, minLat, hint)
			}
			m.target, m.upstream = target, k.upstream
		}
		t.pending[r.ID] = append(t.pending[r.ID], m)
	}
	return nil
}

// deliverDue delivers pending messages for node n. before=true is invoked
// immediately before a firing (downstream and best-effort deliveries);
// before=false immediately after (upstream deliveries).
func (t *teleport) deliverDue(n *ir.Node, before bool) error {
	if t.pending == nil {
		return nil
	}
	msgs := t.pending[n.ID]
	if len(msgs) == 0 {
		return nil
	}
	var keep []*message
	nOB := t.host.tapeProgress(n)
	pushB := progressRateOf(n)
	for _, m := range msgs {
		due := false
		switch {
		case m.bestEffort:
			due = before
		case m.upstream:
			// Deliver after the firing that brings n(O_B) to the target.
			due = !before && nOB >= m.target
		default:
			// Deliver before the firing that would push past the target.
			due = before && nOB+pushB > m.target
		}
		if due {
			if t.trace != nil {
				t.trace.Instant(n.ID, "deliver "+m.handler, "teleport", n.Name)
			}
			if err := t.invokeHandler(n, m); err != nil {
				return err
			}
		} else {
			keep = append(keep, m)
		}
	}
	t.pending[n.ID] = keep
	return nil
}

func (t *teleport) invokeHandler(n *ir.Node, m *message) error {
	k := n.Filter.Kernel
	h := k.Handlers[m.handler]
	if h == nil {
		return fmt.Errorf("%s: missing handler %q", n.Name, m.handler)
	}
	env := wfunc.NewEnv(h)
	env.State = t.host.kernelState(n)
	env.SetArgs(m.args)
	// Handlers may send further messages (paper appendix restriction 4
	// permits this; they may not touch the tapes, which wfunc.Validate
	// enforces statically).
	env.Msg = &sender{t: t, node: n}
	return wfunc.Exec(h, env)
}

// mark records how many messages each receiver has pending, and rewind
// drops everything enqueued since: the teleport half of a supervised
// firing's save point. A firing that is rolled back never happened, so the
// messages it sent before failing must not be delivered. Only sends append
// to pending during a work invocation (handlers run between firings), so
// the lengths are the whole save point.
func (t *teleport) mark() []int {
	lens := make([]int, len(t.pending))
	for i, msgs := range t.pending {
		lens[i] = len(msgs)
	}
	return lens
}

func (t *teleport) rewind(lens []int) {
	for i, l := range lens {
		t.pending[i] = t.pending[i][:l]
	}
}
