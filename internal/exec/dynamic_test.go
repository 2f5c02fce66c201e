package exec

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"streamit/internal/apps"
	"streamit/internal/faults"
	"streamit/internal/ir"
	"streamit/internal/lang"
	"streamit/internal/obs"
	"streamit/internal/wfunc"
)

// runLengthDecoder is a genuinely dynamic-rate filter: it pops a (count,
// value) pair and pushes count copies of value.
func runLengthDecoder() *ir.Filter {
	b := wfunc.NewKernel("RLDecode", 2, 2, 1)
	b.Dynamic()
	cnt := b.Local("cnt")
	v := b.Local("v")
	i := b.Local("i")
	b.WorkBody(
		wfunc.Set(cnt, wfunc.PopE()),
		wfunc.Set(v, wfunc.PopE()),
		wfunc.ForUp(i, wfunc.Ci(0), cnt, wfunc.Push1(v)),
	)
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
}

// pairSource emits (count, value) pairs: (1,10), (2,20), (3,30), ...
func pairSource() *ir.Filter {
	b := wfunc.NewKernel("Pairs", 0, 0, 2)
	n := b.Field("n", 0)
	b.WorkBody(
		wfunc.Push1(wfunc.AddX(wfunc.Bin(wfunc.Mod, n, wfunc.C(3)), wfunc.C(1))),
		wfunc.Push1(wfunc.MulX(wfunc.AddX(wfunc.Bin(wfunc.Mod, n, wfunc.C(3)), wfunc.C(1)), wfunc.C(10))),
		wfunc.SetF(n, wfunc.AddX(n, wfunc.C(1))),
	)
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeVoid, Out: ir.TypeFloat}
}

// TestDynamicRunLengthDecoder: the dynamic engine executes a variable-rate
// program and produces the exact expansion.
func TestDynamicRunLengthDecoder(t *testing.T) {
	snk, got := SliceSink("out")
	prog := &ir.Program{Name: "rle", Top: ir.Pipe("main", pairSource(), runLengthDecoder(), snk)}
	g, err := ir.Flatten(prog)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewFromGraphOpts(g, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunItems(12); err != nil {
		t.Fatal(err)
	}
	// Pairs (1,10),(2,20),(3,30) repeat: expansion 10, 20,20, 30,30,30, ...
	want := []float64{10, 20, 20, 30, 30, 30, 10, 20, 20, 30, 30, 30}
	if len(*got) < len(want) {
		t.Fatalf("got %d items, want >= %d", len(*got), len(want))
	}
	for i := range want {
		if (*got)[i] != want[i] {
			t.Fatalf("out[%d] = %v, want %v", i, (*got)[i], want[i])
		}
	}
}

// TestDynamicRejectedByStaticScheduler: the static pipeline refuses
// dynamic-rate filters with a clear error.
func TestDynamicRejectedByStaticScheduler(t *testing.T) {
	snk, _ := SliceSink("out")
	prog := &ir.Program{Name: "rle", Top: ir.Pipe("main", pairSource(), runLengthDecoder(), snk)}
	if _, err := New(prog); err == nil {
		t.Fatal("static engine should reject dynamic rates")
	}
}

// TestDynamicMatchesSequentialOnStaticProgram: for every static-rate suite
// program, the schedule-less engine in item mode at the default run-ahead
// limit produces a prefix of the scheduled engine's output stream (Kahn
// determinism), at every sink.
func TestDynamicMatchesSequentialOnStaticProgram(t *testing.T) {
	// tapSinks records what every sink of e pops, sink by sink.
	tapSinks := func(t *testing.T, e *Engine) [][]float64 {
		var sinks []*ir.Node
		for _, n := range e.G.Nodes {
			if n.IsSink() && n.InEdge() != nil {
				sinks = append(sinks, n)
			}
		}
		got := make([][]float64, len(sinks))
		for i, n := range sinks {
			if err := e.TapSink(n.Name, func(v float64) { got[i] = append(got[i], v) }); err != nil {
				t.Fatal(err)
			}
		}
		return got
	}
	for _, app := range apps.Suite() {
		t.Run(app.Name, func(t *testing.T) {
			g, s := flattenApp(t, app)
			seq, err := NewFromGraphOpts(g, s, Options{})
			if err != nil {
				t.Fatal(err)
			}
			seqGot := tapSinks(t, seq)
			dynG, _ := flattenApp(t, app)
			d, err := NewFromGraphOpts(dynG, nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			dynGot := tapSinks(t, d)
			n := int64(40)
			items, err := d.RunItems(n)
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for _, got := range dynGot {
				total += len(got)
			}
			if items < n || int64(total) != items {
				t.Fatalf("RunItems(%d) reports %d sink items, the sinks popped %d", n, items, total)
			}
			if err := seq.RunInit(); err != nil {
				t.Fatal(err)
			}
			for k := range dynGot {
				for len(seqGot[k]) < len(dynGot[k]) {
					if err := seq.RunSteady(1); err != nil {
						t.Fatal(err)
					}
				}
				for i, v := range dynGot[k] {
					if math.Float64bits(seqGot[k][i]) != math.Float64bits(v) {
						t.Fatalf("sink %d output %d: sequential %v, dynamic %v", k, i, seqGot[k][i], v)
					}
				}
			}
		})
	}
}

// TestDynamicBudgetDeadlock: a goal-mode pass of the data-driven loop that
// cannot move reports a *DeadlockError listing only the nodes short of
// their goal, each with the edge it waits on — short of input, or held by a
// messaging constraint.
func TestDynamicBudgetDeadlock(t *testing.T) {
	check := func(t *testing.T, err error, want map[string]string) {
		t.Helper()
		var de *DeadlockError
		if !errors.As(err, &de) {
			t.Fatalf("err = %v, want *DeadlockError", err)
		}
		got := map[string]string{}
		for _, fs := range de.Blocked {
			if fs.Edge == "" {
				t.Fatalf("%s is blocked on no edge: %v", fs.Name, err)
			}
			got[fs.Name] = fs.State + " on " + fs.Edge
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("blocked %v, want %v (%v)", got, want, err)
		}
	}
	t.Run("input", func(t *testing.T) {
		g, _, _ := faultPipeline(t, gainFilter("Double", 2))
		d, err := NewFromGraphOpts(g, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Src, Double and snk, in a pipeline: Src stops at 2 firings.
		mid, snk := g.Nodes[1], g.Nodes[2]
		budget := []int64{2, 5, 5}
		check(t, d.runBudget(budget), map[string]string{
			mid.Name: "waiting recv on " + mid.InEdge().String(),
			snk.Name: "waiting recv on " + snk.InEdge().String(),
		})
	})
	t.Run("constraint", func(t *testing.T) {
		// MAX_LATENCY(a, snk, 3): a may not run more than three firings
		// ahead of snk, which its budget holds at none.
		src, a := rampFilter("Src"), gainFilter("a", 1)
		snk, _ := SliceSink("snk")
		prog := &ir.Program{Name: "lat", Top: ir.Pipe("main", src, a, snk),
			Constraints: []ir.LatencyConstraint{{Upstream: a, Downstream: snk, Latency: 3}}}
		e, err := New(prog)
		if err != nil {
			t.Fatal(err)
		}
		an, sn := e.G.FilterNode[a], e.G.FilterNode[snk]
		budget := make([]int64, len(e.G.Nodes))
		budget[e.G.FilterNode[src].ID], budget[an.ID] = 100, 100
		check(t, e.runBudget(budget), map[string]string{
			an.Name: "waiting constraint on " + sn.InEdge().String(),
		})
	})
}

// TestDynamicRunsByItems: an engine built without a schedule runs by
// RunItems only — its schedule runs return an error instead of reading a
// schedule it does not have — and a scheduled engine refuses RunItems.
func TestDynamicRunsByItems(t *testing.T) {
	g, s, _ := faultPipeline(t, gainFilter("Double", 2))
	d, err := NewFromGraphOpts(g, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func() error{
		"Run": func() error { return d.Run(1) }, "RunInit": d.RunInit, "RunSteady": func() error { return d.RunSteady(1) },
	} {
		if err := run(); err == nil || !strings.Contains(err.Error(), "RunItems") {
			t.Fatalf("%s on a schedule-less engine: err = %v, want one naming RunItems", name, err)
		}
	}
	e, err := NewFromGraphOpts(g, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunItems(1); err == nil {
		t.Fatal("RunItems ran an engine that has a schedule")
	}
}

// TestDynamicFeedbackLoop: dynamic execution handles feedback loops (the
// per-item channels interleave finely enough).
func TestDynamicFeedbackLoop(t *testing.T) {
	adder := func() *ir.Filter {
		b := wfunc.NewKernel("adder", 2, 2, 1)
		b.WorkBody(wfunc.Push1(wfunc.AddX(wfunc.PopE(), wfunc.PopE())))
		return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
	}()
	snk, got := SliceSink("out")
	prog := &ir.Program{Name: "fb", Top: ir.Pipe("main",
		SliceSource("ones", []float64{1}),
		&ir.FeedbackLoop{
			Name: "acc", Join: ir.RoundRobin(1, 1), Body: adder,
			Split: ir.Duplicate(), Delay: 1,
		},
		snk,
	)}
	g, err := ir.Flatten(prog)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewFromGraphOpts(g, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunItems(5); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3, 4, 5} // running sum of ones
	for i := range want {
		if (*got)[i] != want[i] {
			t.Fatalf("out[%d] = %v, want %v", i, (*got)[i], want[i])
		}
	}
}

// blockStream is a stream of length-prefixed blocks: block j holds j%4
// items (so some blocks are empty), item i being 100j+i+0.5.
func blockStream(blocks int) []float64 {
	var s []float64
	for j := 0; j < blocks; j++ {
		s = append(s, float64(j%4))
		for i := 0; i < j%4; i++ {
			s = append(s, float64(100*j+i)+0.5)
		}
	}
	return s
}

// blockPipeline builds blocks -> f -> out, where blocks repeats
// blockStream(8), and the dynamic engine over it with one item ahead per
// edge (ahead 1): f, which reads a whole block per firing, then runs its
// input dry part-way through nearly every firing.
func blockPipeline(t *testing.T, f *ir.Filter, opts Options) (*Engine, *[]float64) {
	t.Helper()
	snk, got := SliceSink("out")
	prog := &ir.Program{Name: "blocks", Top: ir.Pipe("main", SliceSource("blocks", blockStream(8)), f, snk)}
	g, err := ir.Flatten(prog)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewFromGraphOpts(g, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	d.ahead = 1
	return d, got
}

// unpack is a `pop *`/`push *` filter: it pops a length k, then k items,
// pushing each doubled plus k.
func unpack() *ir.Filter {
	b := wfunc.NewKernel("Unpack", 0, 0, 0)
	b.Dynamic()
	k := b.Local("k")
	i := b.Local("i")
	b.WorkBody(
		wfunc.Set(k, wfunc.PopE()),
		wfunc.ForUp(i, wfunc.Ci(0), k, wfunc.Push1(wfunc.AddX(wfunc.MulX(wfunc.PopE(), wfunc.C(2)), k))),
	)
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
}

// rewinds counts the rewound attempts a trace recorded.
func rewinds(rec *obs.Recorder) int {
	n := 0
	for _, ev := range rec.Events() {
		if ev.Name == "recover: rewind" {
			n++
		}
	}
	return n
}

// checkOutput compares got bit for bit with want(i), item by item.
func checkOutput(t *testing.T, got []float64, n int, want func(i int) float64) {
	t.Helper()
	if len(got) < n {
		t.Fatalf("got %d items, want >= %d", len(got), n)
	}
	for i, v := range got {
		if math.Float64bits(v) != math.Float64bits(want(i)) {
			t.Fatalf("out[%d] = %v, want %v", i, v, want(i))
		}
	}
}

// TestDynamicUnderflowMidFiring: a `pop *` filter that pops a length and
// then that many items runs its input dry mid-firing. Each such attempt is
// rewound and retried only once its input has grown: the output is the
// exact expansion on both backends, and every attempt is either a firing
// or a rewind that the next attempt follows with new input.
func TestDynamicUnderflowMidFiring(t *testing.T) {
	var want []float64
	data := blockStream(8)
	for p := 0; p < len(data); {
		k := int(data[p])
		for i := 1; i <= k; i++ {
			want = append(want, data[p+i]*2+float64(k))
		}
		p += 1 + k
	}
	wantAt := func(i int) float64 { return want[i%len(want)] }
	for _, backend := range []Backend{BackendVM, BackendInterp} {
		t.Run(backend.String(), func(t *testing.T) {
			rec := obs.NewRecorder()
			d, got := blockPipeline(t, unpack(), Options{Backend: backend, Trace: rec, Profile: true})
			if _, err := d.RunItems(40); err != nil {
				t.Fatal(err)
			}
			checkOutput(t, *got, 40, wantAt)
			if rewinds(rec) == 0 {
				t.Fatal("no attempt was rewound: the filter never ran its input dry")
			}
			// The profile counts firings, not rewound attempts, and the
			// traffic the committed firings moved: what the unpacker's rings
			// hold, which the rewinds put back.
			rt := d.nodes[1]
			for _, p := range d.Profile().Snapshot() {
				if strings.HasPrefix(p.Name, "Unpack") && (p.Firings != rt.fired || p.Popped != rt.in.Popped || p.Pushed != rt.out.Pushed) {
					t.Fatalf("profile counts %d firings, %d pops, %d pushes; the engine %d, its rings %d and %d",
						p.Firings, p.Popped, p.Pushed, rt.fired, rt.in.Popped, rt.out.Pushed)
				}
			}
		})
	}
	// Block 2's two items (outputs 1 and 2) come from firing 2, whose
	// attempts are rewound before one completes: the completed one carries
	// the corruption.
	t.Run("corrupt", func(t *testing.T) {
		d, got := blockPipeline(t, unpack(), Options{Faults: mustPlan(t, "corrupt:Unpack@2")})
		if _, err := d.RunItems(40); err != nil {
			t.Fatal(err)
		}
		checkOutput(t, *got, 40, func(i int) float64 {
			if i == 1 || i == 2 {
				return faults.CorruptValue
			}
			return wantAt(i)
		})
		if st := d.Degraded()["Unpack"]; st.Injected != 1 || st.Corrupted != 1 {
			t.Fatalf("degraded stats %+v, want one corrupt fault", st)
		}
	})
	t.Run("attempts", func(t *testing.T) {
		f := unpack()
		attempts, completed := 0, int64(0)
		dry, pushedAt := false, int64(0)
		f.WorkFn = func(in, out wfunc.Tape, _ *wfunc.State) {
			ring := in.(*wfunc.Ring)
			if dry && ring.Pushed <= pushedAt {
				t.Errorf("attempt %d follows a rewound one with no new input (%d items pushed)", attempts, ring.Pushed)
			}
			attempts++
			dry, pushedAt = true, ring.Pushed
			k := in.Pop()
			for i := 0; i < int(k); i++ {
				out.Push(in.Pop()*2 + k)
			}
			dry = false
			completed++
		}
		rec := obs.NewRecorder()
		d, got := blockPipeline(t, f, Options{Trace: rec})
		if _, err := d.RunItems(40); err != nil {
			t.Fatal(err)
		}
		checkOutput(t, *got, 40, wantAt)
		fired := d.nodes[1].fired
		if fired != completed {
			t.Fatalf("engine counts %d firings, the kernel completed %d", fired, completed)
		}
		if short := rewinds(rec); int64(attempts) > fired+int64(short) {
			t.Fatalf("%d attempts for %d firings and %d short events", attempts, fired, short)
		}
	})
}

// TestDynamicRewindIsProgress: a producer that pushes 8 items per firing
// fills its ring past its run-ahead limit in one firing, and the unpacker's blocks (a
// length 5, then 5 items) are longer than what one burst leaves behind. A
// pass in which the unpacker only rewinds fires nothing, but the rewind
// lifts the producer's full ring, so the next pass fires it: the run goes
// on instead of reporting a deadlock.
func TestDynamicRewindIsProgress(t *testing.T) {
	var data []float64
	for j := 0; j < 8; j++ {
		data = append(data, 5)
		for i := 0; i < 5; i++ {
			data = append(data, float64(10*j+i)+0.5)
		}
	}
	b := wfunc.NewKernel("Burst", 0, 0, 8)
	b.WorkBody(wfunc.ForUp(b.Local("i"), wfunc.Ci(0), wfunc.Ci(8), wfunc.Push1(wfunc.C(0)))) // placeholder body; native fn used
	pos := 0
	burst := &ir.Filter{Kernel: b.Build(), In: ir.TypeVoid, Out: ir.TypeFloat,
		WorkFn: func(_, out wfunc.Tape, _ *wfunc.State) {
			for i := 0; i < 8; i++ {
				out.Push(data[pos%len(data)])
				pos++
			}
		}}
	snk, got := SliceSink("out")
	g, err := ir.Flatten(&ir.Program{Name: "burst", Top: ir.Pipe("main", burst, unpack(), snk)})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	d, err := NewFromGraphOpts(g, nil, Options{Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	d.ahead = 2
	if _, err := d.RunItems(100); err != nil {
		t.Fatal(err)
	}
	checkOutput(t, *got, 100, func(i int) float64 {
		j, k := i/5%8, i%5
		return (float64(10*j+k)+0.5)*2 + 5
	})
	if rewinds(rec) == 0 {
		t.Fatal("no attempt was rewound: the unpacker never ran its input dry")
	}
}

// TestDynamicRewindKeepsFields: a stateful dynamic-rate filter bumps a
// field before it runs its input dry; the rewound attempt leaves the field
// as it was, so every output carries the index of the firing that made it.
func TestDynamicRewindKeepsFields(t *testing.T) {
	counter := func() *ir.Filter {
		b := wfunc.NewKernel("Count", 0, 0, 0)
		b.Dynamic()
		n := b.Field("n", 0)
		k := b.Local("k")
		i := b.Local("i")
		b.WorkBody(
			wfunc.SetF(n, wfunc.AddX(n, wfunc.C(1))),
			wfunc.Set(k, wfunc.PopE()),
			wfunc.ForUp(i, wfunc.Ci(0), k, wfunc.Push1(wfunc.AddX(wfunc.PopE(), wfunc.MulX(n, wfunc.C(1000))))),
		)
		return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
	}
	// Output i comes from block j (counting across repeats), firing j+1.
	var want []float64
	for j := 0; len(want) < 200; j++ {
		for i := 0; i < j%4; i++ {
			want = append(want, float64(100*(j%8)+i)+0.5+float64(1000*(j+1)))
		}
	}
	for _, backend := range []Backend{BackendVM, BackendInterp} {
		t.Run(backend.String(), func(t *testing.T) {
			rec := obs.NewRecorder()
			d, got := blockPipeline(t, counter(), Options{Backend: backend, Trace: rec})
			if _, err := d.RunItems(40); err != nil {
				t.Fatal(err)
			}
			checkOutput(t, *got, 40, func(i int) float64 { return want[i] })
			if rewinds(rec) == 0 {
				t.Fatal("no attempt was rewound: the filter never ran its input dry")
			}
			rt := d.nodes[1]
			if n := rt.state.Scalars[0]; n != float64(rt.fired) {
				t.Fatalf("field n = %v after %d firings: a rewound attempt kept its write", n, rt.fired)
			}
		})
	}
}

// TestDynamicDeterministicProfile: the dynamic engine fires on one thread
// in topological passes, so runs of rle.str on either backend count the
// same firings and tape traffic at every node.
func TestDynamicDeterministicProfile(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "strprogs", "rle.str"))
	if err != nil {
		t.Fatal(err)
	}
	var first []obs.FilterProfile
	for _, backend := range []Backend{BackendVM, BackendInterp, BackendVM} {
		prog, err := lang.ParseAndElaborate(string(src), "Main")
		if err != nil {
			t.Fatal(err)
		}
		g, err := ir.Flatten(prog)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewFromGraphOpts(g, nil, Options{Backend: backend, Profile: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.RunItems(20000); err != nil {
			t.Fatal(err)
		}
		got := d.Profile().Snapshot()
		for i := range got {
			got[i].WorkNS, got[i].StallNS = 0, 0
		}
		if first == nil {
			first = got
			continue
		}
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("%s run profiles %+v, first run %+v", backend, got, first)
		}
	}
}

// TestDynamicReportsNodeErrors: a runtime fault inside a node surfaces as
// an error naming the node rather than hanging the network.
func TestDynamicReportsNodeErrors(t *testing.T) {
	bad := func() *ir.Filter {
		b := wfunc.NewKernel("oob", 1, 1, 1)
		arr := b.FieldArray("a", 2)
		b.WorkBody(
			// Index 5 into a 2-element array: runtime error.
			wfunc.Push1(wfunc.FIdx(arr, wfunc.AddX(wfunc.PopE(), wfunc.C(5)))),
		)
		return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
	}()
	snk, _ := SliceSink("snk")
	prog := &ir.Program{Name: "p", Top: ir.Pipe("main",
		SliceSource("src", []float64{1}), bad, snk)}
	g, err := ir.Flatten(prog)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewFromGraphOpts(g, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.RunItems(10)
	if err == nil {
		t.Fatal("expected node error")
	}
	if !strings.Contains(err.Error(), "oob") {
		t.Errorf("error should name the node: %v", err)
	}
}
