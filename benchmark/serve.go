package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"streamit/internal/core"
	"streamit/internal/exec"
	"streamit/internal/ir"
	"streamit/internal/serve"
	"streamit/internal/wfunc"
)

// serve-fleet: one server, a pool of two workers, a resident fleet of fed
// sessions of two programs, and a closed loop of two clients. A request is
// Feed(16 iterations of input) + Run(16) + WaitDone + Drain.

// fedProgram is a served program with the geometry of its fed source.
type fedProgram struct {
	name, source string
	c            *core.Compiled
	srcNode      *ir.Node
	inPerFiring  int
	inPerIter    int // items one steady iteration consumes
	inPerInit    int // items the init schedule consumes
}

func (b *bench) fedPrograms() ([]*fedProgram, error) {
	var out []*fedProgram
	for _, a := range serveApps {
		c, err := b.src.compileProgram(a.name)
		if err != nil {
			return nil, err
		}
		p := &fedProgram{name: a.name, source: a.source, c: c}
		for _, n := range c.Graph.Nodes {
			if n.Kind == ir.NodeFilter && strings.SplitN(n.Name, "#", 2)[0] == a.source {
				p.srcNode = n
			}
		}
		if p.srcNode == nil || !p.srcNode.IsSource() {
			return nil, fmt.Errorf("%s has no source filter %q", a.name, a.source)
		}
		p.inPerFiring = p.srcNode.TotalPush()
		p.inPerIter = c.Schedule.Reps[p.srcNode.ID] * p.inPerFiring
		p.inPerInit = c.Schedule.InitReps[p.srcNode.ID] * p.inPerFiring
		out = append(out, p)
	}
	return out, nil
}

// fleet is a server with its resident sessions; session i runs program
// i mod len(programs).
type fleet struct {
	srv      *serve.Server
	progs    []*fedProgram
	sessions []*serve.Session
	done     []int64 // steady iterations requested of each session so far
}

func (f *fleet) prog(i int) *fedProgram { return f.progs[i%len(f.progs)] }

func newServer(progs []*fedProgram) (*serve.Server, error) {
	srv := serve.New(serve.Config{Workers: workers})
	for _, p := range progs {
		if _, err := srv.LoadCompiled(p.name, p.c); err != nil {
			srv.Close()
			return nil, err
		}
	}
	return srv, nil
}

// newFleet is serve-fleet's set-up: load the programs, stamp every session
// and feed each the input its init schedule consumes, so the next Run can
// make progress.
func newFleet(progs []*fedProgram, n int, input []float64) (*fleet, error) {
	srv, err := newServer(progs)
	if err != nil {
		return nil, err
	}
	f := &fleet{srv: srv, progs: progs, done: make([]int64, n)}
	for i := 0; i < n; i++ {
		p := f.prog(i)
		s, err := srv.NewSession(serve.SessionOptions{Program: p.name, Source: p.source, Tenant: p.name})
		if err == nil {
			err = feedAll(s, input[:p.inPerInit])
		}
		if err != nil {
			srv.Close()
			return nil, fmt.Errorf("session %d: %w", i, err)
		}
		f.sessions = append(f.sessions, s)
	}
	return f, nil
}

func feedAll(s *serve.Session, vals []float64) error {
	n, err := s.Feed(vals)
	if err == nil && n != len(vals) {
		err = fmt.Errorf("feed refused %d of %d items", len(vals)-n, len(vals))
	}
	return err
}

// request is one closed-loop request against session i. With a tracer the
// four calls each get a span under the request's; steps receives their
// durations (feed, run, wait, drain) when non-nil.
func (f *fleet) request(i int, in []float64, tr *tracer, steps *[4]time.Duration) ([]float64, error) {
	s := f.sessions[i]
	f.done[i] += reqIters
	if tr == nil {
		if err := feedAll(s, in); err != nil {
			return nil, err
		}
		if err := s.Run(reqIters); err != nil {
			return nil, err
		}
		if err := s.WaitDone(f.done[i], 30*time.Second); err != nil {
			return nil, err
		}
		return s.Drain(0), nil
	}
	lane := tr.lane("request")
	defer tr.span(lane, "harness", "request")()
	var out []float64
	var err error
	calls := [4]struct {
		op string
		f  func() error
	}{
		{"Feed", func() error { return feedAll(s, in) }},
		{"Run", func() error { return s.Run(reqIters) }},
		{"WaitDone", func() error { return s.WaitDone(f.done[i], 30*time.Second) }},
		{"Drain", func() error { out = s.Drain(0); return nil }},
	}
	for k, c := range calls {
		if steps[k], err = tr.timed(lane, "serve", c.op, c.f); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// snapshotChunk is how many sessions are checkpointed between two readings
// of the reference kernel: about 25 ms of work.
const snapshotChunk = 250

// chunks cuts s into runs of at most n.
func chunks[T any](s []T, n int) [][]T {
	var out [][]T
	for len(s) > n {
		out, s = append(out, s[:n]), s[n:]
	}
	return append(out, s)
}

// reqSample is one completed request.
type reqSample struct {
	lat   time.Duration
	prog  int
	items int
	steps [4]time.Duration
}

// scale states the sample's durations at the reference box's speed.
func (s *reqSample) scale(k float64) {
	s.lat = time.Duration(float64(s.lat) * k)
	for i := range s.steps {
		s.steps[i] = time.Duration(float64(s.steps[i]) * k)
	}
}

// verifyServe replays, for a few seeded sample sessions, two requests
// against a standalone interpreter engine fed the same values, and
// compares the drained output item for item.
func (b *bench) verifyServe(f *fleet, input []float64) {
	const rounds = 2
	for _, i := range b.rng.Perm(len(f.sessions))[:min(8, len(f.sessions))] {
		p := f.prog(i)
		var got, fed []float64
		fed = append(fed, input[:p.inPerInit]...)
		var err error
		for r := 0; r < rounds && err == nil; r++ {
			off := b.rng.Intn(len(input) - reqIters*p.inPerIter)
			in := input[off : off+reqIters*p.inPerIter]
			fed = append(fed, in...)
			var out []float64
			out, err = f.request(i, in, nil, nil)
			got = append(got, out...)
		}
		if err == nil {
			var want []float64
			if want, err = referenceOutput(p, fed, rounds*reqIters); err == nil && !slices.Equal(got, want) {
				err = fmt.Errorf("drained %d items that differ from the interpreter's %d", len(got), len(want))
			}
		}
		b.res.verified(fmt.Sprintf("%s session %d", p.name, i), err)
	}
}

// referenceOutput runs p for iters steady iterations on a sequential
// interpreter engine whose source pushes the fed values, and returns what
// the sinks consumed in firing order.
func referenceOutput(p *fedProgram, fed []float64, iters int) ([]float64, error) {
	e, err := p.c.EngineOpts(core.RunOptions{Backend: exec.BackendInterp})
	if err != nil {
		return nil, err
	}
	pos := 0
	err = e.OverrideWork(p.srcNode.Name, func(_, out wfunc.Tape) {
		for k := 0; k < p.inPerFiring; k++ {
			out.Push(fed[pos])
			pos++
		}
	})
	if err != nil {
		return nil, err
	}
	var got []float64
	for _, n := range sinkNodes(p.c.Graph) {
		if err := e.TapSink(n.Name, func(v float64) { got = append(got, v) }); err != nil {
			return nil, err
		}
	}
	return got, e.Run(iters)
}

func (b *bench) runServe() {
	sc := b.cfg.scale
	progs, err := b.fedPrograms()
	if !b.res.op("compile served programs", err) {
		return
	}
	// The feed data: seeded values every request slices its input from.
	input := make([]float64, 1<<16)
	for i := range input {
		input[i] = b.rng.Float64()*2 - 1
	}

	// Set-up, several times; the last fleet stays.
	var f *fleet
	var setups []float64
	for i := 0; i < sc.fleets; i++ {
		if f != nil {
			f.srv.Close()
			f = nil
			runtime.GC()
		}
		lane := b.tr.lane("setup fleet")
		var d time.Duration
		var err error
		k := b.host.bracket(func() {
			d, err = b.tr.timed(lane, "serve", "LoadCompiled+NewSession", func() (err error) {
				f, err = newFleet(progs, sc.sessions, input)
				return err
			})
		})
		if !b.res.op("setup fleet", err) {
			return
		}
		setups = append(setups, d.Seconds()*k)
	}
	defer func() { f.srv.Close() }()
	b.res.set("setup_s", "s", summarize(setups))
	idleMB := residentMB()

	b.verifyServe(f, input)

	// The closed loop: each client walks its half of a seeded session order.
	// It runs in windows of windowReqs requests per client, each window
	// between two readings of the reference kernel: a window's rate and
	// latencies are stated at the reference box's speed, and the run reports
	// the median window. The first warmWindows are discarded.
	order := b.rng.Perm(len(f.sessions))
	type client struct {
		rng  *rand.Rand
		mine []int
		next int
	}
	clients := make([]*client, workers)
	for c := range clients {
		clients[c] = &client{
			rng:  rand.New(rand.NewSource(b.cfg.seed + int64(c) + 1)),
			mine: order[c*len(order)/workers : (c+1)*len(order)/workers],
		}
	}
	// The windows get half of -seconds; set-ups, snapshots and restores are
	// timed in the other half.
	budget := b.cfg.budget() / 2
	var all []reqSample
	var rates, items, p50s []float64
	var slow tail
	var start time.Time
	for win := -sc.warmWindows; win < sc.minReps || time.Since(start) < budget; win++ {
		if win == 0 {
			start = time.Now()
		}
		got := make([][]reqSample, workers)
		var wg sync.WaitGroup
		t0 := time.Now()
		var wall time.Duration
		k := b.host.bracket(func() {
			for c, cl := range clients {
				wg.Add(1)
				go func(c int, cl *client) {
					defer wg.Done()
					for n := 0; n < sc.windowReqs; n++ {
						i := cl.mine[cl.next%len(cl.mine)]
						cl.next++
						p := f.prog(i)
						off := cl.rng.Intn(len(input) - reqIters*p.inPerIter)
						smp := reqSample{prog: i % len(progs)}
						t0 := time.Now()
						out, err := f.request(i, input[off:off+reqIters*p.inPerIter], b.tr, &smp.steps)
						smp.lat, smp.items = time.Since(t0), len(out)
						if !b.res.op("request", err) {
							return
						}
						got[c] = append(got[c], smp)
					}
				}(c, cl)
			}
			wg.Wait()
			wall = time.Since(t0)
		})
		if win < 0 {
			continue
		}
		// This window: rate, items, and each program's median latency (the
		// programs averaged geometrically); the 90th percentile comes from
		// every request's latency relative to its program's median in its
		// window.
		lats := make([][]float64, len(progs))
		n, drained := 0, 0
		for _, smp := range slices.Concat(got...) {
			smp.scale(k)
			all = append(all, smp)
			lats[smp.prog] = append(lats[smp.prog], smp.lat.Seconds()*1000)
			n++
			drained += smp.items
		}
		var p50 []float64
		for _, l := range lats {
			if len(l) == 0 {
				continue
			}
			p50 = append(p50, median(l))
			slow.add(l)
		}
		if len(p50) < len(progs) {
			continue // a window some program completed nothing in
		}
		secs := wall.Seconds() * k
		rates, items = append(rates, float64(n)/secs), append(items, float64(drained)/secs)
		p50s = append(p50s, geomean(p50))
	}
	count := func(s summary) summary { s.N = len(all); return s }
	p50 := count(summarize(p50s))
	b.res.set("req_per_s", "1/s", count(summarize(rates)))
	b.res.set("items_per_s", "1/s", summarize(items)) // off-path: what the clients drained
	b.res.set("req_p50_ms", "ms", p50)
	b.res.set("req_p90_ms", "ms", p50.scaled(slow.at(0.9)))
	b.res.setPoint("resident_mb", "MB", residentMB())

	// Snapshot: checkpoint every resident session, as Server.Snapshot does,
	// but into memory. On this box the file writes of Server.Snapshot cost
	// one to eight times the encoding, depending on the state of the page
	// cache and nothing else; what is gated is the server's own part. The
	// sessions are checkpointed in chunks, each between two readings; a pass
	// over the fleet is one sample.
	var snapS []float64
	lane := b.tr.lane("snapshot")
	var image bytes.Buffer
	for i := 0; i < sc.snapshots; i++ {
		runtime.GC()
		pass := 0.0
		for _, chunk := range chunks(f.sessions, snapshotChunk) {
			var d time.Duration
			var err error
			k := b.host.bracket(func() {
				d, err = b.tr.timed(lane, "serve", "Session.Checkpoint", func() error {
					for _, s := range chunk {
						image.Reset()
						if err := s.Checkpoint(&image); err != nil {
							return err
						}
					}
					return nil
				})
			})
			if !b.res.op("snapshot", err) {
				return
			}
			pass += d.Seconds() * k
		}
		snapS = append(snapS, pass)
	}
	b.res.set("snapshot_s", "s", summarize(snapS))

	// Restore: Server.Snapshot once to a directory, for the record and for
	// the restores to read, then Server.Restore of it into a fresh server
	// with the programs loaded, a few times over.
	dir, err := os.MkdirTemp(b.cfg.outDir, "snapshot-")
	if !b.res.op("snapshot dir", err) {
		return
	}
	defer os.RemoveAll(dir)
	var snap serve.SnapshotSummary
	var disk time.Duration
	k := b.host.bracket(func() {
		disk, err = b.tr.timed(lane, "serve", "Snapshot", func() (err error) {
			snap, err = f.srv.Snapshot(dir)
			if err == nil && (snap.Sessions != len(f.sessions) || snap.Skipped != 0) {
				err = fmt.Errorf("snapshot covered %d of %d sessions", snap.Sessions, len(f.sessions))
			}
			return err
		})
	})
	if !b.res.op("snapshot to disk", err) {
		return
	}
	diskS := disk.Seconds() * k
	var restS []float64
	for i := 0; i < sc.snapshots; i++ {
		srv2, err := newServer(progs)
		if !b.res.op("restore server", err) {
			return
		}
		runtime.GC()
		var d time.Duration
		k := b.host.bracket(func() {
			d, err = b.tr.timed(lane, "serve", "Restore", func() error {
				sum, err := srv2.Restore(dir)
				if err == nil && (sum.Restored != len(f.sessions) || len(sum.Failed) != 0) {
					err = fmt.Errorf("restored %d of %d sessions: %v", sum.Restored, len(f.sessions), sum.Failed)
				}
				return err
			})
		})
		srv2.Close()
		if !b.res.op("restore", err) {
			return
		}
		restS = append(restS, d.Seconds()*k)
	}
	b.res.set("restore_s", "s", summarize(restS))

	if b.cfg.trace && len(all) > 0 {
		b.serveLayers(f, all, input, idleMB, median(setups), snap, median(snapS), diskS, median(restS))
	}
}

// serveLayers reports the per-layer numbers of the traced serve pass.
func (b *bench) serveLayers(f *fleet, all []reqSample, input []float64, idleMB, setupS float64,
	snap serve.SnapshotSummary, snapS, diskS, restS float64) {
	n := float64(len(f.sessions))
	r := b.res
	r.setPoint("serve.session_create_us", "us", setupS*1e6/n)
	r.setPoint("serve.session_heap_kb", "KB", idleMB*1e3/n)
	r.setPoint("serve.snapshot_bytes_per_session", "bytes", float64(snap.Bytes)/n)
	r.setPoint("serve.snapshot_us_per_session", "us", snapS*1e6/n)
	r.setPoint("serve.snapshot_disk_ms", "ms", diskS*1e3)
	r.setPoint("serve.restore_us_per_session", "us", restS*1e6/n)

	var lats []float64
	steps := make([][]float64, 4)
	for _, s := range all {
		lats = append(lats, s.lat.Seconds()*1e3)
		for k, d := range s.steps {
			steps[k] = append(steps[k], d.Seconds()*1e6)
		}
	}
	for k, name := range []string{"serve.feed_us", "serve.run_call_us", "serve.wait_us", "serve.drain_us"} {
		r.set(name, "us", summarize(steps[k]))
	}
	sorted := sortedCopy(lats)
	r.setPoint("serve.req_p95_ms", "ms", quantile(sorted, 0.95))
	r.setPoint("serve.req_p99_ms", "ms", quantile(sorted, 0.99))
	r.setPoint("serve.req_p999_ms", "ms", quantile(sorted, 0.999))
	r.setPoint("serve.req_max_ms", "ms", sorted[len(sorted)-1])

	st := f.srv.Stats()
	r.setPoint("serve.iter_p50_us", "us", float64(st.LatencyNS.P50)/1e3)
	r.setPoint("serve.iter_p99_us", "us", float64(st.LatencyNS.P99)/1e3)
	kreq := float64(st.Iterations.Completed) / reqIters / 1e3 // every request the server has seen
	r.setPoint("serve.pool_steals_per_kreq", "count", float64(st.Pool.Steals)/kreq)
	r.setPoint("serve.pool_parks_per_kreq", "count", float64(st.Pool.Parks)/kreq)

	// The engine's share of a request: the same 16 iterations on a bare
	// sequential engine against the request, both at their median.
	var shares []float64
	for pi, p := range f.progs {
		e, err := p.c.EngineOpts(core.RunOptions{})
		if err == nil {
			err = e.RunInit()
		}
		if !r.op("bare engine "+p.name, err) {
			continue
		}
		var bare []float64
		k := b.host.bracket(func() {
			for n := 0; n < 200; n++ {
				t0 := time.Now()
				if err := e.RunSteady(reqIters); err != nil {
					break
				}
				bare = append(bare, time.Since(t0).Seconds())
			}
		})
		var own []float64
		for _, s := range all {
			if s.prog == pi {
				own = append(own, s.lat.Seconds())
			}
		}
		if len(own) > 0 && len(bare) > 0 {
			shares = append(shares, median(bare)*k/median(own))
		}
	}
	r.setPoint("serve.engine_share", "ratio", geomean(shares))

	r.setPoint("obs.harness_trace_overhead_pct", "%", b.serveUntracedDiff(f, input))
	b.serveHTTP(f, input)
}

// serveUntracedDiff replays requests on one client in pairs against the
// same session, one with spans and one without, alternating which goes
// first, and returns how much slower the traced ones are in percent.
func (b *bench) serveUntracedDiff(f *fleet, input []float64) float64 {
	var off, on []float64
	for k := 0; k < 2*b.cfg.scale.httpTrips; k++ {
		i := (k / 2) % len(f.sessions)
		p := f.prog(i)
		tr, dst := (*tracer)(nil), &off
		if (k+k/2)%2 == 1 {
			tr, dst = b.tr, &on
		}
		var steps [4]time.Duration
		t0 := time.Now()
		if _, err := f.request(i, input[:reqIters*p.inPerIter], tr, &steps); !b.res.op("request", err) {
			return 0
		}
		*dst = append(*dst, time.Since(t0).Seconds())
	}
	return (median(on)/median(off) - 1) * 100
}

// serveHTTP times round trips through Server.Handler() on one keep-alive
// loopback connection: status, feed and drain of one session.
func (b *bench) serveHTTP(f *fleet, input []float64) {
	ts := httptest.NewServer(f.srv.Handler())
	defer ts.Close()
	client := ts.Client()
	s, p := f.sessions[0], f.prog(0)
	base := fmt.Sprintf("%s/v1/sessions/%d", ts.URL, s.ID)
	body, err := json.Marshal(map[string]any{"values": input[:reqIters*p.inPerIter]})
	if !b.res.op("http body", err) {
		return
	}
	trip := func(op, method, url string, body []byte) (time.Duration, error) {
		lane := b.tr.lane("http " + op)
		return b.tr.timed(lane, "serve", "HTTP "+op, func() error {
			req, err := http.NewRequest(method, url, bytes.NewReader(body))
			if err != nil {
				return err
			}
			resp, err := client.Do(req)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("%s %s: %s", method, url, resp.Status)
			}
			return nil
		})
	}
	var status, feed, drain []float64
	k := b.host.bracket(func() {
		for n := 0; n < b.cfg.scale.httpTrips; n++ {
			d1, err := trip("status", http.MethodGet, base, nil)
			if !b.res.op("http status", err) {
				return
			}
			d2, err := trip("feed", http.MethodPost, base+"/feed", body)
			if !b.res.op("http feed", err) {
				return
			}
			// Consume what was fed through the API, untimed, so the next
			// drain has output and the input buffer never fills.
			f.done[0] += reqIters
			err = s.Run(reqIters)
			if err == nil {
				err = s.WaitDone(f.done[0], 30*time.Second)
			}
			if !b.res.op("http run", err) {
				return
			}
			d3, err := trip("drain", http.MethodGet, base+"/drain", nil)
			if !b.res.op("http drain", err) {
				return
			}
			status, feed, drain = append(status, d1.Seconds()*1e6), append(feed, d2.Seconds()*1e6), append(drain, d3.Seconds()*1e6)
		}
	})
	b.res.set("serve.http_status_us", "us", summarize(status).scaled(k))
	b.res.set("serve.http_feed_us", "us", summarize(feed).scaled(k))
	b.res.set("serve.http_drain_us", "us", summarize(drain).scaled(k))
}
