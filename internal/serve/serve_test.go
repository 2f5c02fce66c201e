package serve

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"streamit/internal/apps"
	"streamit/internal/core"
	"streamit/internal/exec"
	"streamit/internal/faults"
	"streamit/internal/ir"
	"streamit/internal/wfunc"
)

// testProgram is a tiny source -> gain -> sink pipeline whose output per
// steady iteration is one item.
func testProgram(gain float64) *ir.Program {
	return &ir.Program{Name: "T", Top: ir.Pipe("TP",
		apps.Source("src"),
		apps.Gain("g", gain),
		apps.Sink("out", 1))}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv := New(cfg)
	t.Cleanup(srv.Close)
	return srv
}

func loadTest(t *testing.T, srv *Server, name string, gain float64) {
	t.Helper()
	if _, err := srv.LoadProgram(name, testProgram(gain)); err != nil {
		t.Fatalf("LoadProgram: %v", err)
	}
}

// standaloneRun executes the same program sequentially and returns the
// values its sink consumed — the reference a served session must match
// bit-for-bit.
func standaloneRun(t *testing.T, p *ir.Program, iters int, feed []float64) []float64 {
	t.Helper()
	c, err := core.Compile(p, core.Options{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	sh, err := c.Shared(exec.BackendVM)
	if err != nil {
		t.Fatalf("Shared: %v", err)
	}
	eng, err := sh.NewEngine(exec.Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	// Resolve the flattened instance names of the source and sink.
	var srcName, sinkName string
	for _, n := range c.Graph.Nodes {
		if n.Kind != ir.NodeFilter {
			continue
		}
		if n.IsSource() {
			srcName = n.Name
		}
		if n.IsSink() {
			sinkName = n.Name
		}
	}
	if feed != nil {
		pos := 0
		if err := eng.OverrideWork(srcName, func(_, out wfunc.Tape) {
			out.Push(feed[pos])
			pos++
		}); err != nil {
			t.Fatalf("OverrideWork: %v", err)
		}
	}
	var got []float64
	if err := eng.TapSink(sinkName, func(v float64) { got = append(got, v) }); err != nil {
		t.Fatalf("TapSink: %v", err)
	}
	if err := eng.Run(iters); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return got
}

func TestSessionLifecycle(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 2})
	loadTest(t, srv, "t", 2.0)

	s, err := srv.NewSession(SessionOptions{Program: "t"})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if err := s.Run(20); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := s.WaitDone(20, 5*time.Second); err != nil {
		t.Fatalf("WaitDone: %v", err)
	}
	got := s.Drain(0)
	want := standaloneRun(t, testProgram(2.0), 20, nil)
	if len(got) != len(want) {
		t.Fatalf("drained %d items, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("item %d: got %v, want %v (not bit-identical)", i, got[i], want[i])
		}
	}
	s.Close()
	if err := s.Run(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Run on closed session: err = %v, want ErrClosed", err)
	}
	if srv.Session(s.ID) != nil {
		t.Fatal("closed session still resolvable")
	}
	s.Close() // idempotent
}

func TestFedSessionBitIdentical(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 2})
	loadTest(t, srv, "t", 3.0)

	const iters = 50
	feed := make([]float64, iters+8) // init prework may consume some
	for i := range feed {
		feed[i] = float64(i) * 0.125
	}
	s, err := srv.NewSession(SessionOptions{Program: "t", Source: "src"})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if n, err := s.Feed(feed); err != nil || n != len(feed) {
		t.Fatalf("Feed: accepted %d, err %v", n, err)
	}
	if err := s.Run(iters); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := s.WaitDone(iters, 5*time.Second); err != nil {
		t.Fatalf("WaitDone: %v", err)
	}
	got := s.Drain(0)
	want := standaloneRun(t, testProgram(3.0), iters, feed)
	if len(got) != len(want) {
		t.Fatalf("drained %d items, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("item %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestAdmissionSessionLimit(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1, MaxSessions: 2})
	loadTest(t, srv, "t", 1.0)

	s1, err := srv.NewSession(SessionOptions{Program: "t"})
	if err != nil {
		t.Fatalf("session 1: %v", err)
	}
	if _, err := srv.NewSession(SessionOptions{Program: "t"}); err != nil {
		t.Fatalf("session 2: %v", err)
	}
	if _, err := srv.NewSession(SessionOptions{Program: "t"}); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("session 3: err = %v, want ErrSessionLimit", err)
	}
	if got := srv.Stats().Sessions.RejectedSessions; got != 1 {
		t.Fatalf("rejected_sessions = %d, want 1", got)
	}
	s1.Close()
	if _, err := srv.NewSession(SessionOptions{Program: "t"}); err != nil {
		t.Fatalf("session after close: %v", err)
	}
}

func TestAdmissionIterBacklog(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1, MaxQueuedIters: 10})
	loadTest(t, srv, "t", 1.0)

	// A fed session with no input cannot progress, so requested iterations
	// stay queued and the backlog cap is reachable deterministically.
	s, err := srv.NewSession(SessionOptions{Program: "t", Source: "src"})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if err := s.Run(10); err != nil {
		t.Fatalf("Run within budget: %v", err)
	}
	if err := s.Run(1); !errors.Is(err, ErrIterBacklog) {
		t.Fatalf("Run past budget: err = %v, want ErrIterBacklog", err)
	}
	if got := srv.Stats().Sessions.RejectedIters; got != 1 {
		t.Fatalf("rejected_iters = %d, want 1", got)
	}
}

func TestUnknownProgramAndSource(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1})
	loadTest(t, srv, "t", 1.0)
	if _, err := srv.NewSession(SessionOptions{Program: "nope"}); err == nil {
		t.Fatal("unknown program accepted")
	}
	if _, err := srv.NewSession(SessionOptions{Program: "t", Source: "nope"}); err == nil {
		t.Fatal("unknown source filter accepted")
	}
	if _, err := srv.NewSession(SessionOptions{Program: "t", Source: "out"}); err == nil {
		t.Fatal("sink accepted as fed source")
	}
}

func TestBackpressureIsolation(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 2, MaxBufferedOut: 16, MaxQueuedIters: 4096})
	loadTest(t, srv, "t", 1.0)

	slow, err := srv.NewSession(SessionOptions{Program: "t"})
	if err != nil {
		t.Fatalf("slow session: %v", err)
	}
	fast, err := srv.NewSession(SessionOptions{Program: "t"})
	if err != nil {
		t.Fatalf("fast session: %v", err)
	}
	// Both request far more output than one buffer holds. The slow
	// consumer never drains; the fast one drains concurrently.
	if err := slow.Run(1000); err != nil {
		t.Fatalf("slow.Run: %v", err)
	}
	if err := fast.Run(1000); err != nil {
		t.Fatalf("fast.Run: %v", err)
	}
	fastDone := 0
	deadline := time.Now().Add(10 * time.Second)
	for fastDone < 1000 {
		if time.Now().After(deadline) {
			t.Fatalf("fast session starved: drained %d of 1000 (backpressure not isolated)", fastDone)
		}
		fastDone += len(fast.Drain(0))
		time.Sleep(time.Millisecond)
	}
	// The slow session must have stalled at its buffer cap, not run ahead.
	done, _ := slow.Progress()
	if done > 16 {
		t.Fatalf("slow session completed %d iterations with a full output buffer (cap 16)", done)
	}
	if done == 0 {
		t.Fatal("slow session made no progress at all")
	}
	// Draining the slow session un-stalls it.
	slow.Drain(0)
	if err := slow.WaitDone(32, 5*time.Second); err != nil {
		t.Fatalf("slow session did not resume after drain: %v", err)
	}
}

func TestHotReloadDraining(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 2})
	loadTest(t, srv, "t", 2.0)

	s1, err := srv.NewSession(SessionOptions{Program: "t"})
	if err != nil {
		t.Fatalf("session on v1: %v", err)
	}
	// Reload with different constants: new version for new sessions.
	c5, err := core.Compile(testProgram(5.0), core.Options{})
	if err != nil {
		t.Fatalf("compile v2: %v", err)
	}
	if _, err := srv.LoadCompiled("t", c5); err != nil {
		t.Fatalf("reload: %v", err)
	}
	s2, err := srv.NewSession(SessionOptions{Program: "t"})
	if err != nil {
		t.Fatalf("session on v2: %v", err)
	}
	if s1.ver.num == s2.ver.num {
		t.Fatalf("both sessions on version %d; reload did not create a new version", s1.ver.num)
	}

	// v1 must be draining while s1 lives.
	progs := srv.Programs()
	if len(progs) != 2 {
		t.Fatalf("got %d program versions, want 2 (draining + active): %+v", len(progs), progs)
	}
	if !progs[0].Draining || progs[1].Draining {
		t.Fatalf("want v1 draining and v2 active, got %+v", progs)
	}

	// Old session keeps old semantics; new session gets new ones.
	for s, gain := range map[*Session]float64{s1: 2.0, s2: 5.0} {
		if err := s.Run(10); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if err := s.WaitDone(10, 5*time.Second); err != nil {
			t.Fatalf("WaitDone: %v", err)
		}
		got := s.Drain(0)
		want := standaloneRun(t, testProgram(gain), 10, nil)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("gain-%v session item %d: got %v, want %v", gain, i, got[i], want[i])
			}
		}
	}

	// Closing the last v1 session retires the draining version.
	s1.Close()
	progs = srv.Programs()
	if len(progs) != 1 || progs[0].Draining {
		t.Fatalf("after drain, want single active version, got %+v", progs)
	}

	// Reloading the same compiled program (what the source cache returns
	// for unchanged text) is a no-op, not a new version.
	v, err := srv.LoadCompiled("t", c5)
	if err != nil {
		t.Fatalf("identical reload: %v", err)
	}
	if v != s2.ver.num {
		t.Fatalf("identical reload made version %d, want %d", v, s2.ver.num)
	}
}

func TestFeedBounded(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1, MaxBufferedIn: 8})
	loadTest(t, srv, "t", 1.0)
	s, err := srv.NewSession(SessionOptions{Program: "t", Source: "src"})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	n, err := s.Feed(make([]float64, 20))
	if err != nil {
		t.Fatalf("Feed: %v", err)
	}
	if n != 8 {
		t.Fatalf("accepted %d items, want 8 (MaxBufferedIn)", n)
	}
	// Unfed plain session rejects Feed.
	p, err := srv.NewSession(SessionOptions{Program: "t"})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if _, err := p.Feed([]float64{1}); err == nil {
		t.Fatal("Feed on session without Source succeeded")
	}
}

func TestStatsDocument(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 2})
	loadTest(t, srv, "t", 1.0)
	s, err := srv.NewSession(SessionOptions{Program: "t", Tenant: "acme"})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if err := s.Run(25); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := s.WaitDone(25, 5*time.Second); err != nil {
		t.Fatalf("WaitDone: %v", err)
	}
	st := srv.Stats()
	if st.Schema != StatsSchema {
		t.Fatalf("schema = %q, want %q", st.Schema, StatsSchema)
	}
	if st.Sessions.Open != 1 || st.Sessions.Created != 1 {
		t.Fatalf("session counters off: %+v", st.Sessions)
	}
	if st.Iterations.Completed != 25 {
		t.Fatalf("iterations completed = %d, want 25", st.Iterations.Completed)
	}
	if st.LatencyNS.Count != 25 || st.LatencyNS.P99 == 0 || st.LatencyNS.Max == 0 {
		t.Fatalf("latency summary off: %+v", st.LatencyNS)
	}
	if st.LatencyNS.P50 > st.LatencyNS.P99 || st.LatencyNS.P99 > 2*st.LatencyNS.Max {
		t.Fatalf("latency quantiles inconsistent: %+v", st.LatencyNS)
	}
	if tn, ok := st.Tenants["acme"]; !ok || tn.Sessions != 1 || tn.Iterations != 25 {
		t.Fatalf("tenant stats off: %+v", st.Tenants)
	}
	if len(st.Programs) != 1 || !st.Programs[0].Active {
		t.Fatalf("program stats off: %+v", st.Programs)
	}
}

func TestSessionProfile(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1})
	loadTest(t, srv, "t", 1.0)
	s, err := srv.NewSession(SessionOptions{Program: "t", Profile: true})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if err := s.Run(5); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := s.WaitDone(5, 5*time.Second); err != nil {
		t.Fatalf("WaitDone: %v", err)
	}
	p := s.Profile()
	if p == nil {
		t.Fatal("Profile() = nil with Profile option set")
	}
	var firings int64 = -1
	for _, fp := range p.Snapshot() {
		if strings.HasPrefix(fp.Name, "g#") {
			firings = fp.Firings
		}
	}
	if firings != 5 {
		t.Fatalf("profiled firings for g = %d, want 5", firings)
	}
}

// twoSinkProgram duplicates a source into two sinks of different rates:
// k pops one item a firing, l two behind the gain g, so one steady
// iteration fires k twice and l once.
func twoSinkProgram() *ir.Program {
	return &ir.Program{Name: "TS", Top: ir.Pipe("TSP",
		apps.Source("src"),
		ir.SJ("SJ", ir.Duplicate(), ir.Null(),
			apps.Sink("k", 1),
			ir.Pipe("LP", apps.Gain("g", 2), apps.Sink("l", 2))))}
}

// twoSinkReference runs twoSinkProgram one steady iteration at a time
// with both sinks tapped into one stream, and returns that stream and the
// items init and one iteration tap.
func twoSinkReference(t *testing.T, iters int) (out []float64, perInit, perIter int) {
	t.Helper()
	c, err := core.Compile(twoSinkProgram(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := c.Shared(exec.BackendVM)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sh.NewEngine(exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Graph.Nodes {
		if n.Kind == ir.NodeFilter && n.IsSink() {
			if err := eng.TapSink(n.Name, func(v float64) { out = append(out, v) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := eng.RunInit(); err != nil {
		t.Fatal(err)
	}
	perInit = len(out)
	for i := 0; i < iters; i++ {
		if err := eng.RunSteady(1); err != nil {
			t.Fatal(err)
		}
	}
	return out, perInit, (len(out) - perInit) / iters
}

// TestMultiSinkStreamBatchIndependent: a session merges its sinks' taps
// one iteration at a time in schedule order, so a program with two sinks
// drains the stream a one-iteration-at-a-time run taps under any batch
// size; after a fault, the drained stream stops at the last completed
// iteration, whatever the batch.
func TestMultiSinkStreamBatchIndependent(t *testing.T) {
	const iters = 40
	want, perInit, perIter := twoSinkReference(t, iters)
	if perIter != 4 {
		t.Fatalf("reference taps %d items an iteration, want 4", perIter)
	}
	serveRun := func(batch int, plan string) ([]float64, int64) {
		t.Helper()
		srv := newTestServer(t, Config{Workers: 1, Batch: batch})
		if _, err := srv.LoadProgram("ts", twoSinkProgram()); err != nil {
			t.Fatal(err)
		}
		opt := SessionOptions{Program: "ts"}
		if plan != "" {
			p, err := faults.ParsePlan(plan)
			if err != nil {
				t.Fatal(err)
			}
			opt.Faults = p
		}
		s, err := srv.NewSession(opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(iters); err != nil {
			t.Fatal(err)
		}
		err = s.WaitDone(iters, 5*time.Second)
		if (err != nil) != (plan != "") {
			t.Fatalf("batch %d plan %q: WaitDone: %v", batch, plan, err)
		}
		done, _ := s.Progress()
		return s.Drain(0), done
	}
	for _, plan := range []string{"", "panic:g@20"} {
		var first []float64
		for _, batch := range []int{1, 8} {
			got, done := serveRun(batch, plan)
			if n := perInit + int(done)*perIter; len(got) != n {
				t.Fatalf("plan %q batch %d: drained %d items after %d iterations, want %d", plan, batch, len(got), done, n)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("plan %q batch %d: item %d is %v, want %v", plan, batch, i, got[i], want[i])
				}
			}
			if first != nil && len(got) != len(first) {
				t.Fatalf("plan %q: batch 8 drained %d items, batch 1 %d", plan, len(got), len(first))
			}
			first = got
		}
	}
}
