package serve

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// latHist is a lock-free log-bucketed histogram of per-iteration latencies
// in nanoseconds. A batch runs as one engine call, so an iteration's latency
// is its batch's mean: a batch of k iterations records its time over k, k
// times. Values below 16 get exact buckets; above that each power-of-two
// octave splits into 8 sub-buckets, bounding quantile error at ~6%.
// Recording a batch is three atomic adds plus a CAS loop for the max.
type latHist struct {
	buckets [16 + 8*59]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

func latIndex(v int64) int {
	if v < 16 {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	msb := bits.Len64(uint64(v)) - 1
	return 16 + (msb-4)*8 + int((v>>(msb-3))&7)
}

// latValue returns a representative (midpoint) value for bucket idx.
func latValue(idx int) int64 {
	if idx < 16 {
		return int64(idx)
	}
	msb := 4 + (idx-16)/8
	sub := int64((idx - 16) % 8)
	lo := int64(1)<<msb | sub<<(msb-3)
	return lo + int64(1)<<(msb-3)/2
}

// record adds n iterations of ns each.
func (h *latHist) record(ns, n int64) {
	h.buckets[latIndex(ns)].Add(n)
	h.count.Add(n)
	h.sum.Add(ns * n)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// quantile returns the approximate q-quantile (0 < q <= 1) in nanoseconds.
func (h *latHist) quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen > rank {
			return latValue(i)
		}
	}
	return h.max.Load()
}

// Stats is the server's observable state, serialized as the
// streamit-serve/v1 JSON document by the /v1/stats endpoint.
type Stats struct {
	Schema     string                 `json:"schema"`
	UptimeMS   int64                  `json:"uptime_ms"`
	Draining   bool                   `json:"draining"`
	Sessions   SessionCounters        `json:"sessions"`
	Iterations IterCounters           `json:"iterations"`
	LatencyNS  LatencySummary         `json:"latency_ns"`
	Pool       PoolCounters           `json:"pool"`
	Snapshots  SnapshotCounters       `json:"snapshots"`
	Programs   []ProgramStats         `json:"programs"`
	Tenants    map[string]TenantStats `json:"tenants,omitempty"`
}

// StatsSchema is the schema tag of the stats document.
const StatsSchema = "streamit-serve/v1"

// SessionCounters counts session lifecycle events since server start.
type SessionCounters struct {
	Open             int   `json:"open"`
	Peak             int   `json:"peak"`
	Created          int64 `json:"created"`
	Closed           int64 `json:"closed"`
	RejectedSessions int64 `json:"rejected_sessions"`
	RejectedIters    int64 `json:"rejected_iters"`
	// Quarantined counts sessions terminally failed and isolated from the
	// pool (engine errors, contained panics, stuck verdicts).
	Quarantined int64 `json:"quarantined"`
	// Stuck counts the subset of quarantines declared by the batch-timeout
	// watchdog.
	Stuck int64 `json:"stuck"`
	// Restored counts sessions rebuilt from snapshot checkpoints.
	Restored int64 `json:"restored"`
}

// IterCounters counts steady-state iteration flow.
type IterCounters struct {
	Completed int64 `json:"completed"`
	Queued    int64 `json:"queued"`
}

// LatencySummary summarizes the per-iteration latency histogram. A pool
// batch of k iterations runs as one engine call, and each of its
// iterations counts at the batch's mean, time over k: Count is iterations,
// and Max the slowest batch's mean, not the slowest single iteration.
type LatencySummary struct {
	Count int64 `json:"count"`
	P50   int64 `json:"p50"`
	P90   int64 `json:"p90"`
	P99   int64 `json:"p99"`
	Max   int64 `json:"max"`
}

// PoolCounters reports worker-pool scheduling activity.
type PoolCounters struct {
	// Workers is the live worker count: configured size plus replacements,
	// minus workers lost to stuck batches.
	Workers int `json:"workers"`
	// Steals is always 0: the pool is one queue, so there is nothing to
	// steal. The field stays because streamit-serve/v1 readers expect it.
	Steals int64 `json:"steals"`
	Parks  int64 `json:"parks"`
	// Lost counts workers written off by the stuck-session watchdog;
	// Replaced counts the fresh workers spawned to take their slots.
	Lost     int64 `json:"lost"`
	Replaced int64 `json:"replaced"`
}

// SnapshotCounters reports checkpoint/restore lifecycle activity.
type SnapshotCounters struct {
	// Taken counts completed Server.Snapshot calls.
	Taken int64 `json:"taken"`
	// SessionsRestored counts sessions rebuilt by Server.Restore.
	SessionsRestored int64 `json:"sessions_restored"`
}

// ProgramStats describes one loaded program version. Draining versions are
// superseded ones still pinned by open sessions.
type ProgramStats struct {
	Name        string `json:"name"`
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
	Sessions    int64  `json:"sessions"`
	Active      bool   `json:"active"`
	Draining    bool   `json:"draining"`
}

// TenantStats aggregates per-tenant usage.
type TenantStats struct {
	Sessions    int   `json:"sessions"`
	Iterations  int64 `json:"iterations"`
	Quarantined int64 `json:"quarantined,omitempty"`
}

// Stats snapshots the server's counters. Safe to call concurrently with
// serving traffic; counters are read atomically but not as one consistent
// cut.
func (srv *Server) Stats() Stats {
	lost := srv.pool.stuck.Load()
	st := Stats{
		Schema:   StatsSchema,
		UptimeMS: time.Since(srv.start).Milliseconds(),
		Draining: srv.draining.Load(),
		Sessions: SessionCounters{
			Created:          srv.created.Load(),
			Closed:           srv.closedCount.Load(),
			RejectedSessions: srv.rejectedSessions.Load(),
			RejectedIters:    srv.rejectedIters.Load(),
			Quarantined:      srv.quarantinedCount.Load(),
			Stuck:            srv.stuckCount.Load(),
			Restored:         srv.restoredCount.Load(),
		},
		Iterations: IterCounters{Completed: srv.itersDone.Load()},
		LatencyNS: LatencySummary{
			Count: srv.lat.count.Load(),
			P50:   srv.lat.quantile(0.50),
			P90:   srv.lat.quantile(0.90),
			P99:   srv.lat.quantile(0.99),
			Max:   srv.lat.max.Load(),
		},
		Pool: PoolCounters{
			Workers:  len(srv.pool.workerList()) - int(lost),
			Parks:    srv.pool.parks.Load(),
			Lost:     lost,
			Replaced: srv.pool.replaced.Load(),
		},
		Snapshots: SnapshotCounters{
			Taken:            srv.snapshotsTaken.Load(),
			SessionsRestored: srv.restoredCount.Load(),
		},
		Tenants: map[string]TenantStats{},
	}
	srv.mu.Lock()
	st.Sessions.Open = len(srv.sessions)
	st.Sessions.Peak = srv.peak
	var queued int64
	for _, s := range srv.sessions {
		s.mu.Lock()
		// A quarantined session's backlog is dead work, not queue depth.
		if s.err == nil {
			queued += s.goal - s.done
		}
		tenant := s.opt.Tenant
		s.mu.Unlock()
		t := st.Tenants[tenant]
		t.Sessions++
		st.Tenants[tenant] = t
	}
	for name, iters := range srv.tenantIters {
		t := st.Tenants[name]
		t.Iterations = iters
		st.Tenants[name] = t
	}
	srv.qmu.Lock()
	for name, q := range srv.tenantQuarantines {
		t := st.Tenants[name]
		t.Quarantined = q
		st.Tenants[name] = t
	}
	srv.qmu.Unlock()
	for _, p := range srv.programs {
		latest := p.versions[len(p.versions)-1]
		for _, v := range p.versions {
			st.Programs = append(st.Programs, ProgramStats{
				Name:        p.name,
				Version:     v.num,
				Fingerprint: fingerprintString(v.fp),
				Sessions:    v.active.Load(),
				Active:      v == latest,
				Draining:    v != latest,
			})
		}
	}
	srv.mu.Unlock()
	st.Iterations.Queued = queued
	return st
}
