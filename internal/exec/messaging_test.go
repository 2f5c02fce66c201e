package exec

import (
	"testing"

	"streamit/internal/ir"
	"streamit/internal/wfunc"
)

// ampFilter is a gain filter with a setGain teleport handler.
func ampFilter(name string) *ir.Filter {
	b := wfunc.NewKernel(name, 1, 1, 1)
	g := b.Field("gain", 1)
	arg := b.Local("arg")
	b.WorkBody(wfunc.Push1(wfunc.MulX(wfunc.PopE(), g)))
	b.Handler("setGain", 1, wfunc.SetF(g, arg))
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
}

// triggerSender passes values through; when it sees trigger, it sends
// setGain(2) to the portal with the given latency.
func triggerSender(name string, portal int, trigger float64, latency int, bestEffort bool) *ir.Filter {
	b := wfunc.NewKernel(name, 1, 1, 1)
	v := b.Local("v")
	b.WorkBody(
		wfunc.Set(v, wfunc.PopE()),
		wfunc.Push1(v),
		wfunc.IfS(wfunc.Bin(wfunc.Eq, v, wfunc.C(trigger)),
			&wfunc.Send{Portal: portal, Handler: "setGain", Args: []wfunc.Expr{wfunc.C(2)},
				MinLatency: latency, MaxLatency: latency, BestEffort: bestEffort}),
	)
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
}

func TestDownstreamMessageTiming(t *testing.T) {
	// Sender upstream of receiver, latency 1: the gain change takes effect
	// exactly after the item that triggered it (the paper's guarantee: the
	// message arrives immediately before the first receiver invocation
	// whose output is affected by the trigger item).
	prog := &ir.Program{Name: "p"}
	portal := prog.NewPortal("gainPortal")
	amp := ampFilter("amp")
	portal.Register(amp)
	src := SliceSource("src", []float64{1, 2, 3, 42, 5, 6, 7, 8})
	snk, got := SliceSink("snk")
	prog.Top = ir.Pipe("main", src, triggerSender("trig", portal.ID, 42, 1, false), amp, snk)

	out, err := RunCollect(prog, 8, got)
	if err != nil {
		t.Fatal(err)
	}
	// Items 1,2,3,42 at gain 1; everything after at gain 2.
	want := []float64{1, 2, 3, 42, 10, 12, 14, 16}
	for i := range want {
		if i < len(out) && out[i] != want[i] {
			t.Errorf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestDownstreamMessageHigherLatency(t *testing.T) {
	// Latency 3: two more sender outputs pass at the old gain.
	prog := &ir.Program{Name: "p"}
	portal := prog.NewPortal("gainPortal")
	amp := ampFilter("amp")
	portal.Register(amp)
	src := SliceSource("src", []float64{1, 2, 42, 4, 5, 6, 7, 8})
	snk, got := SliceSink("snk")
	prog.Top = ir.Pipe("main", src, triggerSender("trig", portal.ID, 42, 3, false), amp, snk)

	out, err := RunCollect(prog, 8, got)
	if err != nil {
		t.Fatal(err)
	}
	// Trigger is item 3 (s=3); latency 3 -> delivery before the item after
	// s + push*(λ-1) = 5: items 1..5 old gain, 6.. new gain.
	want := []float64{1, 2, 42, 4, 5, 12, 14, 16}
	for i := range want {
		if i < len(out) && out[i] != want[i] {
			t.Errorf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestUpstreamMessageTiming(t *testing.T) {
	// Receiver upstream of sender with latency 2: the receiver processes
	// exactly 2 more items past the sender's wavefront before the change.
	prog := &ir.Program{Name: "p"}
	portal := prog.NewPortal("volPortal")
	vol := ampFilter("vol")
	portal.Register(vol)
	src := SliceSource("src", []float64{1, 2, 3, 7, 5, 6, 4, 8})
	snk, got := SliceSink("snk")
	prog.Top = ir.Pipe("main", src, vol, triggerSender("mon", portal.ID, 7, 2, false), snk)

	out, err := RunCollect(prog, 8, got)
	if err != nil {
		t.Fatal(err)
	}
	// mon sees 7 as its 4th item (s=4); target n(O_vol) = s + 2 = 6: vol's
	// items 1..6 pass at gain 1, from the 7th onward gain 2.
	want := []float64{1, 2, 3, 7, 5, 6, 8, 16}
	for i := range want {
		if i < len(out) && out[i] != want[i] {
			t.Errorf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestBestEffortMessage(t *testing.T) {
	prog := &ir.Program{Name: "p"}
	portal := prog.NewPortal("gainPortal")
	amp := ampFilter("amp")
	portal.Register(amp)
	src := SliceSource("src", []float64{42, 2, 3, 4})
	snk, got := SliceSink("snk")
	prog.Top = ir.Pipe("main", src, triggerSender("trig", portal.ID, 42, 0, true), amp, snk)

	out, err := RunCollect(prog, 4, got)
	if err != nil {
		t.Fatal(err)
	}
	// Best-effort delivery happens before the receiver's next firing; with
	// the data-driven schedule the gain flips somewhere early. All outputs
	// must be either v or 2v, and once doubled, stay doubled.
	doubled := false
	for i, v := range out {
		base := []float64{42, 2, 3, 4}[i%4]
		switch v {
		case base:
			if doubled {
				t.Errorf("out[%d] reverted to old gain", i)
			}
		case 2 * base:
			doubled = true
		default:
			t.Errorf("out[%d] = %v, not %v or %v", i, v, base, 2*base)
		}
	}
	if !doubled {
		t.Error("gain change never took effect")
	}
}

func TestMaxLatencyConstraintBoundsRunahead(t *testing.T) {
	// MAX_LATENCY(A, snk, 3): A may run at most 3 sink-invocations ahead.
	prog := &ir.Program{Name: "p"}
	src := SliceSource("src", []float64{1})
	a := ampFilter("A")
	snk, _ := SliceSink("snk")
	prog.Top = ir.Pipe("main", src, a, snk)
	prog.Constraints = []ir.LatencyConstraint{{Upstream: a, Downstream: snk, Latency: 3}}

	e, err := New(prog)
	if err != nil {
		t.Fatal(err)
	}
	if !e.constrained {
		t.Fatal("MAX_LATENCY should force constraint-aware scheduling")
	}
	if err := e.RunInit(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		if err := e.RunSteady(1); err != nil {
			t.Fatal(err)
		}
		aNode := e.G.FilterNode[a]
		edge := aNode.OutEdge()
		if ahead := e.chans[edge.ID].Len(); ahead > 3 {
			t.Fatalf("A ran %d items ahead of the sink; MAX_LATENCY allows 3", ahead)
		}
	}
}

func TestSelfMessageRejected(t *testing.T) {
	prog := &ir.Program{Name: "p"}
	portal := prog.NewPortal("selfPortal")
	self := triggerSender("self", portal.ID, 1, 1, false)
	// Give the sender a handler so registration is otherwise valid.
	selfAmp := ampFilter("selfamp")
	_ = selfAmp
	portal.Register(self)
	src := SliceSource("src", []float64{1})
	snk, _ := SliceSink("snk")
	prog.Top = ir.Pipe("main", src, self, snk)
	if _, err := New(prog); err == nil {
		t.Fatal("expected self-messaging to be rejected")
	}
}

func TestMissingHandlerRejected(t *testing.T) {
	prog := &ir.Program{Name: "p"}
	portal := prog.NewPortal("p0")
	// Receiver has no setGain handler.
	plain := func() *ir.Filter {
		b := wfunc.NewKernel("plain", 1, 1, 1)
		b.WorkBody(wfunc.Push1(wfunc.PopE()))
		return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
	}()
	portal.Register(plain)
	src := SliceSource("src", []float64{42})
	snk, _ := SliceSink("snk")
	prog.Top = ir.Pipe("main", src, triggerSender("trig", portal.ID, 42, 1, false), plain, snk)
	e, err := New(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(1); err == nil {
		t.Fatal("expected missing-handler error at send time")
	}
}

// TestHandlerSendsMessage: the paper permits message handlers to send
// further messages (appendix restriction 4). A relay filter's handler
// forwards the gain change to a second portal.
func TestHandlerSendsMessage(t *testing.T) {
	prog := &ir.Program{Name: "p"}
	relayPortal := prog.NewPortal("relay")
	finalPortal := prog.NewPortal("final")

	// The relay: passes data through; its handler re-sends best-effort to
	// the final portal.
	relayB := wfunc.NewKernel("relay", 1, 1, 1)
	g := relayB.Local("g")
	relayB.WorkBody(wfunc.Push1(wfunc.PopE()))
	relayB.Handler("forward", 1,
		&wfunc.Send{Portal: finalPortal.ID, Handler: "setGain",
			Args: []wfunc.Expr{g}, BestEffort: true})
	relay := &ir.Filter{Kernel: relayB.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
	relayPortal.Register(relay)

	amp := ampFilter("finalAmp")
	finalPortal.Register(amp)

	src := SliceSource("src", []float64{42, 2, 3, 4})
	snk, got := SliceSink("snk")
	prog.Top = ir.Pipe("main",
		src,
		triggerToPortal("trig", relayPortal.ID, 42, "forward"),
		relay,
		amp,
		snk,
	)
	out, err := RunCollect(prog, 12, got)
	if err != nil {
		t.Fatal(err)
	}
	// Eventually the amp doubles values: the relayed message arrived.
	doubled := false
	for i, v := range out {
		base := []float64{42, 2, 3, 4}[i%4]
		if v == 2*base {
			doubled = true
		}
	}
	if !doubled {
		t.Error("relayed message never reached the final receiver")
	}
}

// triggerToPortal sends a named handler message (best effort) when it sees
// the trigger value.
func triggerToPortal(name string, portal int, trigger float64, handler string) *ir.Filter {
	b := wfunc.NewKernel(name, 1, 1, 1)
	v := b.Local("v")
	b.WorkBody(
		wfunc.Set(v, wfunc.PopE()),
		wfunc.Push1(v),
		wfunc.IfS(wfunc.Bin(wfunc.Eq, v, wfunc.C(trigger)),
			&wfunc.Send{Portal: portal, Handler: handler,
				Args: []wfunc.Expr{wfunc.C(2)}, BestEffort: true}),
	)
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
}

// TestMultipleReceiversBroadcast: a portal with two registered receivers
// delivers to both (the appendix's broadcast semantics).
func TestMultipleReceiversBroadcast(t *testing.T) {
	prog := &ir.Program{Name: "p"}
	portal := prog.NewPortal("bcast")
	amp1 := ampFilter("amp1")
	amp2 := ampFilter("amp2")
	portal.Register(amp1)
	portal.Register(amp2)
	src := SliceSource("src", []float64{42, 1, 1, 1})
	snk, got := SliceSink("snk")
	prog.Top = ir.Pipe("main", src, triggerSender("trig", portal.ID, 42, 1, false), amp1, amp2, snk)
	out, err := RunCollect(prog, 12, got)
	if err != nil {
		t.Fatal(err)
	}
	// After delivery both receivers double: 4x overall.
	quadrupled := false
	for i, v := range out {
		base := []float64{42, 1, 1, 1}[i%4]
		if v == 4*base {
			quadrupled = true
		}
	}
	if !quadrupled {
		t.Error("broadcast did not reach both receivers")
	}
}
