// Package faults is the runtime-robustness substrate of the execution
// engines: a deterministic, seedable fault injector (kernel panics, stalls,
// and value corruption at chosen firings) and per-kernel recovery policies
// (fail, retry, skip, restart). The paper's execution model assumes filters
// never fail; this package supplies the controlled failure modes and the
// recovery vocabulary that let the engines prove they can diagnose and
// survive a misbehaving kernel instead of hanging or dying on a bare panic.
//
// Plans are textual so they thread through CLI flags:
//
//	panic:LowPass@12;corrupt:Eq@30;stall:Demod@5
//	rand:4@42
//
// The first form schedules explicit one-shot faults ("make filter LowPass
// panic at its 12th firing"). The second derives a pseudo-random schedule
// of 4 panic/corrupt faults from seed 42 — the same seed over the same
// graph always yields the same schedule, so a failure found by a fuzzing
// run is replayable bit-for-bit.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind enumerates injected failure modes.
type Kind int

const (
	// Panic makes the firing fail as if the kernel panicked.
	Panic Kind = iota
	// Stall makes the kernel block forever (watchdog fodder). The
	// sequential engine, which has no watchdog, reports stalls
	// synchronously as errors.
	Stall
	// Corrupt lets the firing run but replaces every value it pushes with
	// CorruptValue.
	Corrupt
	// Crash kills a whole worker goroutine of the mapped engine (worker
	// faults only; filters cannot crash a worker except by panicking).
	Crash
	// Slow injects a one-shot delay into a worker's iteration (worker
	// faults only) — degradation without failure.
	Slow
	// Partition makes a distributed shard stop heartbeating while its
	// sockets stay open (shard faults only) — the network-partition
	// failure mode, distinct from a crash (connection reset) and a stall
	// (heartbeats keep flowing but the barrier never arrives).
	Partition
)

// CorruptValue is the sentinel emitted by Corrupt faults — large, exactly
// representable, and never produced by the benchmark kernels, so degraded
// output is unmistakable in tests and logs.
const CorruptValue = 9.9e99

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Panic:
		return "panic"
	case Stall:
		return "stall"
	case Corrupt:
		return "corrupt"
	case Crash:
		return "crash"
	case Slow:
		return "slow"
	case Partition:
		return "partition"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ParseKind maps the spec names onto Kind values.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "panic":
		return Panic, nil
	case "stall":
		return Stall, nil
	case "corrupt":
		return Corrupt, nil
	}
	return 0, fmt.Errorf("faults: unknown fault kind %q (want panic, stall, or corrupt)", s)
}

// Fault is one scheduled failure: filter Filter misbehaves at its
// Firing-th firing (0-based, counted per engine from the start of the
// supervised phase). Faults are one-shot: once triggered they are consumed,
// so a retried or restarted firing succeeds.
type Fault struct {
	Filter string
	Firing int64
	Kind   Kind
}

// String renders the spec form of the fault.
func (f Fault) String() string {
	return fmt.Sprintf("%s:%s@%d", f.Kind, f.Filter, f.Firing)
}

// WorkerFault is one scheduled worker-level failure on the mapped engine:
// worker Worker crashes, stalls, or slows at the start of steady iteration
// Iter (0-based, counted over the whole run). Worker faults are one-shot,
// and — unlike filter faults — they survive firing rollback: a crash
// consumed before a checkpoint replay is not re-injected, so recovery
// converges. Engines without workers (sequential, parallel, dynamic)
// ignore them.
type WorkerFault struct {
	Worker int
	Iter   int64
	Kind   Kind // Crash, Stall, or Slow
}

// String renders the spec form of the worker fault.
func (f WorkerFault) String() string {
	return fmt.Sprintf("%s:worker%d@%d", f.Kind, f.Worker, f.Iter)
}

// ShardFault is one scheduled shard-level failure on the distributed
// engine: shard Shard (its stable join-order ID, which survives re-plans)
// fails at the start of steady iteration Iter. Crash kills the shard
// process (or, in-process, severs every connection at once); Stall wedges
// the shard while its heartbeats keep flowing (barrier-deadline fodder);
// Partition silences heartbeats while the sockets stay open. Shard faults
// are one-shot and survive rollback, like worker faults. Engines other
// than the distributed one ignore them.
type ShardFault struct {
	Shard int
	Iter  int64
	Kind  Kind // Crash, Stall, or Partition
}

// String renders the spec form of the shard fault.
func (f ShardFault) String() string {
	return fmt.Sprintf("%s:shard%d@%d", f.Kind, f.Shard, f.Iter)
}

// RandSpec asks for N pseudo-random faults derived from Seed, scheduled
// over the graph's filters within the first MaxFiring firings. Stalls are
// never generated randomly (they would hang watchdog-less engines);
// explicit specs can still schedule them.
type RandSpec struct {
	N         int
	Seed      int64
	MaxFiring int64
}

// Plan is a parsed fault schedule: explicit filter faults, worker-level
// faults, plus an optional random generator, materialized against a
// concrete graph by NewInjector (worker faults are consumed by the mapped
// engine's supervisor instead — they name workers, not filters).
type Plan struct {
	Faults       []Fault
	WorkerFaults []WorkerFault
	ShardFaults  []ShardFault
	Rand         *RandSpec
}

// Empty reports whether the plan schedules nothing.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.Faults) == 0 && len(p.WorkerFaults) == 0 && len(p.ShardFaults) == 0 && p.Rand == nil)
}

// workerTarget recognizes the "workerN" target form of worker-level
// faults.
func workerTarget(target string) (int, bool) {
	return indexedTarget(target, "worker")
}

// shardTarget recognizes the "shardN" target form of shard-level faults.
func shardTarget(target string) (int, bool) {
	return indexedTarget(target, "shard")
}

func indexedTarget(target, prefix string) (int, bool) {
	rest, ok := strings.CutPrefix(target, prefix)
	if !ok || rest == "" {
		return 0, false
	}
	w, err := strconv.Atoi(rest)
	if err != nil || w < 0 {
		return 0, false
	}
	return w, true
}

// ParsePlan parses a -faults flag value. Entries are separated by ';' or
// ','; each is kind:filter@firing, kind:workerN@iteration (kind: crash,
// stall, or slow — mapped engine only), kind:shardN@iteration (kind:
// crash, stall, or partition — distributed engine only), or rand:N@seed.
func ParsePlan(spec string) (*Plan, error) {
	p := &Plan{}
	for _, entry := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ',' }) {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		kindStr, rest, ok := strings.Cut(entry, ":")
		if !ok {
			return nil, fmt.Errorf("faults: entry %q: want kind:filter@firing or rand:N@seed", entry)
		}
		target, atStr, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, fmt.Errorf("faults: entry %q: missing @", entry)
		}
		at, err := strconv.ParseInt(strings.TrimSpace(atStr), 10, 64)
		if err != nil || at < 0 {
			return nil, fmt.Errorf("faults: entry %q: bad number after @", entry)
		}
		if kindStr == "rand" {
			n, err := strconv.Atoi(strings.TrimSpace(target))
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("faults: entry %q: rand wants a positive count", entry)
			}
			if p.Rand != nil {
				return nil, fmt.Errorf("faults: at most one rand entry")
			}
			p.Rand = &RandSpec{N: n, Seed: at, MaxFiring: 256}
			continue
		}
		target = strings.TrimSpace(target)
		if sh, ok := shardTarget(target); ok {
			var kind Kind
			switch kindStr {
			case "crash":
				kind = Crash
			case "stall":
				kind = Stall
			case "partition":
				kind = Partition
			default:
				return nil, fmt.Errorf("faults: entry %q: shard faults want crash, stall, or partition", entry)
			}
			p.ShardFaults = append(p.ShardFaults, ShardFault{Shard: sh, Iter: at, Kind: kind})
			continue
		}
		if w, ok := workerTarget(target); ok {
			var kind Kind
			switch kindStr {
			case "crash":
				kind = Crash
			case "stall":
				kind = Stall
			case "slow":
				kind = Slow
			default:
				return nil, fmt.Errorf("faults: entry %q: worker faults want crash, stall, or slow", entry)
			}
			p.WorkerFaults = append(p.WorkerFaults, WorkerFault{Worker: w, Iter: at, Kind: kind})
			continue
		}
		if kindStr == "crash" || kindStr == "slow" {
			return nil, fmt.Errorf("faults: entry %q: %s faults target workers (workerN), not filters", entry, kindStr)
		}
		if kindStr == "partition" {
			return nil, fmt.Errorf("faults: entry %q: partition faults target shards (shardN), not filters", entry)
		}
		kind, err := ParseKind(kindStr)
		if err != nil {
			return nil, err
		}
		p.Faults = append(p.Faults, Fault{Filter: target, Firing: at, Kind: kind})
	}
	if p.Empty() {
		return nil, fmt.Errorf("faults: empty plan %q", spec)
	}
	return p, nil
}

// BaseName strips the instance decorations the compiler appends to node
// names — the flattener's "#ID" uniquifier and the fission rewrite's
// "/fN" replica suffix — recovering the source-level filter or segment
// name users write in fault plans and policy specs. A fused segment's
// base keeps its "A+B" form; SplitConstituents recovers the pieces.
func BaseName(node string) string {
	if i := strings.IndexByte(node, '#'); i >= 0 {
		node = node[:i]
	}
	if base, _, ok := replicaName(node); ok {
		node = base
	}
	return node
}

// replicaName splits a fission-replica instance name ("Seg/f3", already
// stripped of any "#ID" suffix) into its segment name and replica index.
func replicaName(node string) (string, int, bool) {
	i := strings.LastIndex(node, "/f")
	if i < 0 {
		return "", 0, false
	}
	idx, err := strconv.Atoi(node[i+2:])
	if err != nil || idx < 0 {
		return "", 0, false
	}
	return node[:i], idx, true
}

// SplitConstituents lists the source-level filters folded into a base
// name by fusion ("A+B" -> A, B); a plain name is its own only
// constituent.
func SplitConstituents(base string) []string {
	return strings.Split(base, "+")
}

// Materialize resolves the plan against a graph's filter names (in
// deterministic graph order): explicit faults are validated, and the rand
// spec is expanded with a seeded generator so the same seed over the same
// filter list always yields the same schedule.
//
// A fault written against a source-level name also resolves onto the
// instances the mapped rewrite synthesizes from it: a name matching one
// fused segment ("A+B#3" for target A or B) resolves directly, and a name
// matching a complete fission-replica set ("F/f0..F/f{k-1}") is remapped
// so the fault lands where the original firing went — replica firing%k at
// its firing/k firing, the round-robin scatter's distribution law.
func (p *Plan) Materialize(filters []string) ([]Fault, error) {
	if p == nil {
		return nil, nil
	}
	known := make(map[string]bool, len(filters))
	byPre := make(map[string][]string, len(filters))  // name sans "#ID"
	byBase := make(map[string][]string, len(filters)) // source-level base
	byPart := make(map[string][]string)               // fused constituents
	for _, f := range filters {
		known[f] = true
		pre := f
		if i := strings.IndexByte(pre, '#'); i >= 0 {
			pre = pre[:i]
		}
		byPre[pre] = append(byPre[pre], f)
		base := BaseName(f)
		if base != pre {
			byBase[base] = append(byBase[base], f)
		}
		if parts := SplitConstituents(base); len(parts) > 1 {
			for _, part := range parts {
				byPart[part] = append(byPart[part], f)
			}
		}
	}
	out := append([]Fault(nil), p.Faults...)
	for i, f := range out {
		if known[f.Filter] {
			continue
		}
		matches := byPre[f.Filter]
		if len(matches) == 0 {
			matches = byBase[f.Filter]
		}
		if len(matches) == 0 {
			matches = byPart[f.Filter]
		}
		switch len(matches) {
		case 0:
			return nil, fmt.Errorf("faults: filter %q not in graph (have %s)", f.Filter, strings.Join(filters, ", "))
		case 1:
			out[i].Filter = matches[0]
		default:
			replicas, ok := replicaSet(matches)
			if !ok {
				return nil, fmt.Errorf("faults: filter %q is ambiguous (instances %s); use a full node name", f.Filter, strings.Join(matches, ", "))
			}
			k := int64(len(replicas))
			out[i].Filter = replicas[f.Firing%k]
			out[i].Firing = f.Firing / k
		}
	}
	if p.Rand != nil {
		if len(filters) == 0 {
			return nil, fmt.Errorf("faults: rand plan needs at least one filter")
		}
		rng := rand.New(rand.NewSource(p.Rand.Seed))
		for i := 0; i < p.Rand.N; i++ {
			kind := Panic
			if rng.Intn(2) == 1 {
				kind = Corrupt
			}
			out = append(out, Fault{
				Filter: filters[rng.Intn(len(filters))],
				Firing: rng.Int63n(p.Rand.MaxFiring),
				Kind:   kind,
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Firing < out[j].Firing })
	return out, nil
}

// replicaSet checks whether the matched instances form one complete
// fission-replica set of a single segment (indices exactly 0..k-1) and
// returns them ordered by replica index.
func replicaSet(matches []string) ([]string, bool) {
	ordered := make([]string, len(matches))
	var seg string
	for _, m := range matches {
		pre := m
		if i := strings.IndexByte(pre, '#'); i >= 0 {
			pre = pre[:i]
		}
		base, idx, ok := replicaName(pre)
		if !ok || idx >= len(matches) || ordered[idx] != "" {
			return nil, false
		}
		if seg == "" {
			seg = base
		} else if seg != base {
			return nil, false
		}
		ordered[idx] = m
	}
	return ordered, true
}

// Injector hands scheduled faults to an engine as it fires filters. It is
// safe for concurrent use (the mapped engine consults it from every worker
// goroutine).
type Injector struct {
	mu      sync.Mutex
	pending map[string][]Fault // per filter, ascending by firing
}

// NewInjector materializes a plan against the graph's filter names. A nil
// or empty plan yields an injector that never fires.
func NewInjector(p *Plan, filters []string) (*Injector, error) {
	sched, err := p.Materialize(filters)
	if err != nil {
		return nil, err
	}
	inj := &Injector{pending: map[string][]Fault{}}
	for _, f := range sched {
		inj.pending[f.Filter] = append(inj.pending[f.Filter], f)
	}
	return inj, nil
}

// Next returns the scheduled fault due for this filter at (or before) the
// given firing index, consuming it. One-shot consumption means a retried
// firing does not re-trigger the same fault.
func (inj *Injector) Next(filter string, firing int64) (Fault, bool) {
	if inj == nil {
		return Fault{}, false
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	q := inj.pending[filter]
	if len(q) == 0 || q[0].Firing > firing {
		return Fault{}, false
	}
	f := q[0]
	inj.pending[filter] = q[1:]
	return f, true
}
