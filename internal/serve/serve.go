// Package serve is a multi-tenant streaming server: it compiles StreamIt
// programs once, then multiplexes thousands of cheap per-tenant sessions
// of those programs onto one worker pool sized to the machine, which
// serves runnable sessions round-robin, a batch at a time. Sessions share
// the program's immutable artifacts (graph, schedule, VM bytecode,
// init-state prototypes — see exec.Shared) and own only their tapes,
// filter state, and VM frames, so an idle session costs a few kilobytes.
// Admission control bounds sessions and per-session iteration backlog;
// backpressure from a slow consumer throttles only its own session;
// reloading a program's source hot-swaps new sessions onto the new version
// while old sessions drain on the version they pinned.
package serve

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streamit/internal/core"
	"streamit/internal/exec"
	"streamit/internal/ir"
	"streamit/internal/sched"
	"streamit/internal/wire"
)

// maxBatch caps Config.Batch, the iterations of one engine call.
const maxBatch = 64

// Config sizes the server. Zero values select the documented defaults.
type Config struct {
	// Workers is the pool size; 0 selects GOMAXPROCS.
	Workers int
	// MaxSessions bounds concurrently open sessions (default 16384).
	MaxSessions int
	// MaxQueuedIters bounds undone iterations per session (default 4096).
	MaxQueuedIters int
	// MaxBufferedIn bounds fed-but-unconsumed items per session
	// (default 65536).
	MaxBufferedIn int
	// MaxBufferedOut bounds produced-but-undrained items per session
	// (default 8192); a full output buffer stalls only that session.
	MaxBufferedOut int
	// Batch is how many steady iterations a worker runs per dispatch
	// (default 8, max 64). Larger batches amortize scheduling; smaller
	// ones reduce per-session latency jitter.
	Batch int
	// Backend selects the work-function substrate for all sessions.
	Backend exec.Backend
	// BatchTimeout arms the stuck-session watchdog: a single batch holding
	// one pool worker longer than this marks its session stuck (a
	// worker-attributed *StuckError) and spawns a replacement worker so the
	// pool keeps serving at full strength. 0 disables the watchdog.
	BatchTimeout time.Duration
	// SnapshotDir is the default directory for Snapshot/Restore, used by
	// the HTTP /v1/snapshot endpoint when the request names none.
	SnapshotDir string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 16384
	}
	if c.MaxQueuedIters <= 0 {
		c.MaxQueuedIters = 4096
	}
	if c.MaxBufferedIn <= 0 {
		c.MaxBufferedIn = 65536
	}
	if c.MaxBufferedOut <= 0 {
		c.MaxBufferedOut = 8192
	}
	if c.Batch <= 0 {
		c.Batch = 8
	}
	if c.Batch > maxBatch {
		c.Batch = maxBatch
	}
	return c
}

// Server multiplexes sessions of loaded programs onto a shared worker
// pool. All methods are safe for concurrent use.
type Server struct {
	cfg   Config
	pool  *pool
	cache *core.Cache
	start time.Time

	mu          sync.Mutex
	programs    map[string]*program
	sessions    map[uint64]*Session
	tenantIters map[string]int64
	nextSID     uint64
	peak        int

	// qmu is a leaf lock: noteQuarantine runs under a Session's mutex, so
	// the quarantine counters cannot share srv.mu (Stats orders srv.mu
	// before s.mu).
	qmu               sync.Mutex
	tenantQuarantines map[string]int64

	draining         atomic.Bool
	created          atomic.Int64
	closedCount      atomic.Int64
	rejectedSessions atomic.Int64
	rejectedIters    atomic.Int64
	itersDone        atomic.Int64
	quarantinedCount atomic.Int64
	stuckCount       atomic.Int64
	snapshotsTaken   atomic.Int64
	restoredCount    atomic.Int64
	lat              latHist

	// snapMu admits one Snapshot sweep at a time: a sweep removes the files
	// (and killed sweeps' temporaries) it did not itself write.
	snapMu sync.Mutex
	// writeFile persists one snapshot file (wire.WriteFile); the snapshot
	// tests replace it to cut a sweep short.
	writeFile func(path string, data []byte) error
}

// program is a named entry in the registry; versions accumulate on reload
// and retire once drained.
type program struct {
	name     string
	versions []*version
}

// version is one immutable compiled edition of a program. Sessions pin the
// version current at their creation; a superseded version survives,
// draining, until its last session closes.
type version struct {
	name   string
	num    int
	fp     uint64
	shared *exec.Shared

	// Output geometry: items every sink pops per steady iteration and
	// during init (what a session's output buffer fills at).
	outPerIter int
	outPerInit int
	sinks      []string
	// initOrder and iterOrder are the sink firings of init and of one
	// steady iteration in schedule order: the order in which a session
	// merges its sinks' taps into one stream, whatever its batch size.
	initOrder, iterOrder []outShare

	active atomic.Int64
}

// outShare is one schedule entry of a sink: items its firings pop, and
// the sink's index in version.sinks.
type outShare struct{ sink, items int }

// sinkOrder lists the sink entries of a schedule phase and the items they
// pop in all.
func sinkOrder(entries []sched.Entry, sinks []string) (order []outShare, items int) {
	for _, en := range entries {
		if i := slices.Index(sinks, en.Node.Name); i >= 0 {
			order = append(order, outShare{i, en.Count * en.Node.TotalPop()})
			items += en.Count * en.Node.TotalPop()
		}
	}
	return order, items
}

// New starts a server with its worker pool running.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:               cfg,
		pool:              newPool(cfg.Workers, cfg.BatchTimeout),
		cache:             core.NewCache(),
		start:             time.Now(),
		programs:          map[string]*program{},
		sessions:          map[uint64]*Session{},
		tenantIters:       map[string]int64{},
		tenantQuarantines: map[string]int64{},
		writeFile:         wire.WriteFile,
	}
}

// Close stops the worker pool. Open sessions stop making progress; their
// buffered output stays drainable.
func (srv *Server) Close() { srv.pool.close() }

// LoadSource compiles src (cached by source hash) and loads it under name.
// Loading an already-present name with a different compiled fingerprint is
// a hot reload: a new version becomes current for future sessions while
// existing sessions drain on theirs. Returns the current version number.
func (srv *Server) LoadSource(name, src, top string) (int, error) {
	c, _, err := srv.cache.CompileSource(src, top, core.Options{})
	if err != nil {
		return 0, err
	}
	return srv.LoadCompiled(name, c)
}

// LoadProgram compiles an in-memory IR program and loads it under name.
func (srv *Server) LoadProgram(name string, p *ir.Program) (int, error) {
	c, err := core.Compile(p, core.Options{})
	if err != nil {
		return 0, err
	}
	return srv.LoadCompiled(name, c)
}

// LoadCompiled registers a compiled program under name. Reload identity is
// the compiled object itself: loading the same *Compiled again (which is
// what the source cache returns for unchanged source text) is a no-op,
// while any fresh compilation — even one that happens to share the
// structural fingerprint — becomes a new version. The structural
// fingerprint deliberately ignores work-function bodies (it names
// checkpoint-compatible shapes), so it cannot tell a constant tweak from
// no change at all; object identity can.
func (srv *Server) LoadCompiled(name string, c *core.Compiled) (int, error) {
	sh, err := c.Shared(srv.cfg.Backend)
	if err != nil {
		return 0, err
	}
	v := &version{name: name, fp: sh.Fingerprint(), shared: sh}
	for _, n := range sh.G.Nodes {
		if n.Kind == ir.NodeFilter && n.IsSink() {
			v.sinks = append(v.sinks, n.Name)
		}
	}
	sort.Strings(v.sinks)
	v.initOrder, v.outPerInit = sinkOrder(sh.Sch.Init, v.sinks)
	v.iterOrder, v.outPerIter = sinkOrder(sh.Sch.Steady, v.sinks)

	srv.mu.Lock()
	defer srv.mu.Unlock()
	p := srv.programs[name]
	if p == nil {
		p = &program{name: name}
		srv.programs[name] = p
	}
	if n := len(p.versions); n > 0 && p.versions[n-1].shared == sh {
		return p.versions[n-1].num, nil // identical program: no new version
	}
	v.num = len(p.versions) + 1
	if n := len(p.versions); n > 0 {
		v.num = p.versions[n-1].num + 1
	}
	p.versions = append(p.versions, v)
	srv.pruneLocked(p)
	return v.num, nil
}

// pruneLocked drops superseded versions with no remaining sessions.
// Callers hold srv.mu.
func (srv *Server) pruneLocked(p *program) {
	if len(p.versions) <= 1 {
		return
	}
	kept := p.versions[:0]
	for i, v := range p.versions {
		if i == len(p.versions)-1 || v.active.Load() > 0 {
			kept = append(kept, v)
		}
	}
	p.versions = kept
}

// Programs lists loaded program versions, sorted by name then version.
func (srv *Server) Programs() []ProgramStats {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	var out []ProgramStats
	for _, p := range srv.programs {
		latest := p.versions[len(p.versions)-1]
		for _, v := range p.versions {
			out = append(out, ProgramStats{
				Name:        p.name,
				Version:     v.num,
				Fingerprint: fingerprintString(v.fp),
				Sessions:    v.active.Load(),
				Active:      v == latest,
				Draining:    v != latest,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Version < out[j].Version
	})
	return out
}

// NewSession opens a session of the named program's current version.
// Construction stamps an engine from the version's shared artifacts —
// allocation-light by design, which is what makes 10k-session fan-out
// practical. The session is idle until Run requests iterations.
func (srv *Server) NewSession(opt SessionOptions) (*Session, error) {
	if srv.draining.Load() {
		return nil, ErrDraining
	}
	srv.mu.Lock()
	if len(srv.sessions) >= srv.cfg.MaxSessions {
		srv.mu.Unlock()
		srv.rejectedSessions.Add(1)
		return nil, fmt.Errorf("%w (%d open)", ErrSessionLimit, srv.cfg.MaxSessions)
	}
	p := srv.programs[opt.Program]
	if p == nil {
		srv.mu.Unlock()
		return nil, fmt.Errorf("serve: unknown program %q", opt.Program)
	}
	ver := p.versions[len(p.versions)-1]
	srv.nextSID++
	sid := srv.nextSID
	srv.mu.Unlock()

	s, err := srv.buildSession(ver, opt)
	if err != nil {
		return nil, err
	}
	s.ID = sid

	srv.mu.Lock()
	if len(srv.sessions) >= srv.cfg.MaxSessions {
		srv.mu.Unlock()
		srv.rejectedSessions.Add(1)
		return nil, fmt.Errorf("%w (%d open)", ErrSessionLimit, srv.cfg.MaxSessions)
	}
	srv.sessions[sid] = s
	if len(srv.sessions) > srv.peak {
		srv.peak = len(srv.sessions)
	}
	ver.active.Add(1)
	srv.mu.Unlock()
	srv.created.Add(1)
	return s, nil
}

// buildSession stamps an engine from the version's shared artifacts and
// wires the session's source override, sink taps, and supervision options.
// The caller registers the result (and assigns its ID) under srv.mu.
func (srv *Server) buildSession(ver *version, opt SessionOptions) (*Session, error) {
	s := &Session{srv: srv, ver: ver, opt: opt, policies: policiesSpec(opt.OnError), waitCh: make(chan struct{})}
	engOpts := exec.Options{
		Profile: opt.Profile,
		Faults:  opt.Faults,
		OnError: opt.OnError,
	}
	eng, err := ver.shared.NewEngine(engOpts)
	if err != nil {
		return nil, err
	}
	if opt.Source != "" {
		srcName, err := feedRates(ver.shared, opt.Source, s)
		if err != nil {
			return nil, err
		}
		if err := eng.OverrideWork(srcName, s.sourceOverride()); err != nil {
			return nil, err
		}
	}
	s.sinkOut, s.sinkPos = make([][]float64, len(ver.sinks)), make([]int, len(ver.sinks))
	for i, sink := range ver.sinks {
		if err := eng.TapSink(sink, func(v float64) { s.sinkOut[i] = append(s.sinkOut[i], v) }); err != nil {
			return nil, err
		}
	}
	s.eng = eng
	s.prof = eng.Profile()
	return s, nil
}

// noteQuarantine counts a terminally failed session server-wide and per
// tenant. Runs under the session's mutex, hence the leaf lock.
func (srv *Server) noteQuarantine(tenant string) {
	srv.quarantinedCount.Add(1)
	srv.qmu.Lock()
	srv.tenantQuarantines[tenant]++
	srv.qmu.Unlock()
}

// Drain stops session admission (new sessions fail with ErrDraining) and
// waits for every open session's in-flight work to finish — each session
// either reaches its requested goal, stalls on missing input or a full
// output buffer, fails, or closes. Returns ErrTimeout if the pool has not
// gone quiet by the deadline; already-admitted sessions keep running
// either way. Draining is one-way: it is the first phase of shutdown.
func (srv *Server) Drain(timeout time.Duration) error {
	srv.draining.Store(true)
	deadline := time.Now().Add(timeout)
	for {
		if srv.quiet() {
			return nil
		}
		if time.Now().After(deadline) {
			return ErrTimeout
		}
		time.Sleep(time.Millisecond)
	}
}

// quiet reports whether no session has dispatchable or in-flight work.
func (srv *Server) quiet() bool {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for _, s := range srv.sessions {
		s.mu.Lock()
		busy := s.scheduled || (s.err == nil && !s.closed && s.dispatchableLocked() > 0)
		s.mu.Unlock()
		if busy {
			return false
		}
	}
	return true
}

// feedRates validates that name resolves to a pushing source filter of the
// bundle's graph, fills the session's input geometry, and returns the
// filter's flattened instance name.
func feedRates(sh *exec.Shared, name string, s *Session) (string, error) {
	n, err := findFilter(sh.G, name)
	if err != nil {
		return "", err
	}
	if !n.IsSource() || n.TotalPush() == 0 {
		return "", fmt.Errorf("serve: filter %q is not a pushing source", name)
	}
	s.inPerFiring = n.TotalPush()
	s.inPerIter = sh.Sch.Reps[n.ID] * s.inPerFiring
	s.inPerInit = sh.Sch.InitReps[n.ID] * s.inPerFiring
	return n.Name, nil
}

// findFilter resolves a filter by flattened instance name ("src#0") or by
// the bare kernel name the user wrote ("src"), rejecting ambiguous bare
// names — flattening suffixes every instance with "#<id>".
func findFilter(g *ir.Graph, name string) (*ir.Node, error) {
	var found *ir.Node
	for _, n := range g.Nodes {
		if n.Kind != ir.NodeFilter {
			continue
		}
		if n.Name == name {
			return n, nil
		}
		if baseName(n.Name) == name {
			if found != nil {
				return nil, fmt.Errorf("serve: filter name %q is ambiguous (instances %s, %s)", name, found.Name, n.Name)
			}
			found = n
		}
	}
	if found == nil {
		return nil, fmt.Errorf("serve: no filter named %q in program", name)
	}
	return found, nil
}

// baseName strips every flattening suffix: builder graphs mangle one
// instance counter ("src#0"), lang-elaborated graphs two ("Mic#2#0").
func baseName(s string) string {
	if i := strings.IndexByte(s, '#'); i >= 0 {
		return s[:i]
	}
	return s
}

// Session looks up an open session by ID.
func (srv *Server) Session(id uint64) *Session {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.sessions[id]
}

// closeSession implements Session.Close.
func (srv *Server) closeSession(s *Session) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.notifyLocked()
	s.mu.Unlock()

	srv.mu.Lock()
	delete(srv.sessions, s.ID)
	s.ver.active.Add(-1)
	if p := srv.programs[s.ver.name]; p != nil {
		srv.pruneLocked(p)
	}
	srv.mu.Unlock()
	srv.closedCount.Add(1)
}

// recordIters folds a finished batch of n iterations into the server-wide
// latency histogram, each at the batch's mean, and the counters.
func (srv *Server) recordIters(tenant string, n int, meanNS int64) {
	srv.lat.record(meanNS, int64(n))
	srv.itersDone.Add(int64(n))
	srv.mu.Lock()
	srv.tenantIters[tenant] += int64(n)
	srv.mu.Unlock()
}

func fingerprintString(fp uint64) string { return fmt.Sprintf("%016x", fp) }
