package faults

import (
	"reflect"
	"testing"
	"time"
)

func TestParsePlanExplicit(t *testing.T) {
	p, err := ParsePlan("panic:LowPass@12; corrupt:Eq@30,stall:Demod@5")
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{
		{Filter: "LowPass", Firing: 12, Kind: Panic},
		{Filter: "Eq", Firing: 30, Kind: Corrupt},
		{Filter: "Demod", Firing: 5, Kind: Stall},
	}
	if !reflect.DeepEqual(p.Faults, want) {
		t.Fatalf("got %v, want %v", p.Faults, want)
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, bad := range []string{"", "panic", "panic:X", "panic:X@-1", "blow:X@3", "rand:0@7", "rand:2@1;rand:2@2"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) should fail", bad)
		}
	}
}

func TestSeededScheduleIsDeterministic(t *testing.T) {
	filters := []string{"A", "B", "C"}
	p, err := ParsePlan("rand:5@42")
	if err != nil {
		t.Fatal(err)
	}
	s1, err := p.Materialize(filters)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p.Materialize(filters)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("same seed diverged: %v vs %v", s1, s2)
	}
	if len(s1) != 5 {
		t.Fatalf("got %d faults, want 5", len(s1))
	}
	for _, f := range s1 {
		if f.Kind == Stall {
			t.Fatalf("rand schedule must not contain stalls: %v", f)
		}
	}
	other, err := ParsePlan("rand:5@43")
	if err != nil {
		t.Fatal(err)
	}
	s3, err := other.Materialize(filters)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(s1, s3) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestMaterializeRejectsUnknownFilter(t *testing.T) {
	p, err := ParsePlan("panic:Ghost@1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Materialize([]string{"A", "B"}); err == nil {
		t.Fatal("unknown filter should be rejected")
	}
}

func TestInjectorConsumesOneShot(t *testing.T) {
	p, _ := ParsePlan("panic:A@3")
	inj, err := NewInjector(p, []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := inj.Next("A", 2); ok {
		t.Fatal("fault fired early")
	}
	f, ok := inj.Next("A", 3)
	if !ok || f.Kind != Panic {
		t.Fatalf("fault did not fire: %v %v", f, ok)
	}
	if _, ok := inj.Next("A", 3); ok {
		t.Fatal("fault fired twice")
	}
	if n := len(inj.pending["A"]); n != 0 {
		t.Fatalf("%d faults remain, want 0", n)
	}
}

func TestInjectorLateDelivery(t *testing.T) {
	// A fault whose firing index was passed still triggers at the next
	// opportunity (<= semantics), so off-by-one engine counters cannot
	// silently drop scheduled faults.
	p, _ := ParsePlan("corrupt:A@1")
	inj, err := NewInjector(p, []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := inj.Next("A", 10); !ok || f.Kind != Corrupt {
		t.Fatal("late fault should still deliver")
	}
}

func TestParsePolicies(t *testing.T) {
	ps, err := ParsePolicies("LowPass=restart, Eq=retry:2:10ms, default=skip")
	if err != nil {
		t.Fatal(err)
	}
	if ps.Default.Action != Skip {
		t.Fatalf("default = %v", ps.Default)
	}
	if got := ps.For("LowPass"); got.Action != Restart {
		t.Fatalf("LowPass = %v", got)
	}
	if got := ps.For("Eq"); got.Action != Retry || got.Retries != 2 || got.Backoff != 10*time.Millisecond {
		t.Fatalf("Eq = %+v", got)
	}
	if got := ps.For("Other"); got.Action != Skip {
		t.Fatalf("fallback = %v", got)
	}
	if !ps.Active() {
		t.Fatal("policies should be active")
	}

	bare, err := ParsePolicies("retry")
	if err != nil {
		t.Fatal(err)
	}
	if bare.Default.Action != Retry || bare.Default.Retries != 3 {
		t.Fatalf("bare retry = %+v", bare.Default)
	}

	var zero Policies
	if zero.Active() {
		t.Fatal("zero policies must be inactive")
	}
	if _, err := ParsePolicies("explode"); err == nil {
		t.Fatal("bad policy should be rejected")
	}
	if _, err := ParsePolicies("retry:0"); err == nil {
		t.Fatal("retry:0 should be rejected")
	}
}

func TestParsePlanWorkerFaults(t *testing.T) {
	p, err := ParsePlan("crash:worker1@200; stall:worker0@5, slow:worker2@8")
	if err != nil {
		t.Fatal(err)
	}
	want := []WorkerFault{
		{Worker: 1, Iter: 200, Kind: Crash},
		{Worker: 0, Iter: 5, Kind: Stall},
		{Worker: 2, Iter: 8, Kind: Slow},
	}
	if !reflect.DeepEqual(p.WorkerFaults, want) {
		t.Fatalf("got %v, want %v", p.WorkerFaults, want)
	}
	if got := want[0].String(); got != "crash:worker1@200" {
		t.Fatalf("String() = %q", got)
	}
	// Crash and slow target workers, never filters; panic targets filters,
	// never workers (a stalled worker is just every filter on it stalling,
	// so stall accepts both).
	for _, bad := range []string{"crash:LowPass@3", "slow:LowPass@3", "crash:worker-1@3"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) should fail", bad)
		}
	}
}

func TestBaseNameInstances(t *testing.T) {
	cases := map[string]string{
		"Gain":      "Gain",
		"Gain#7":    "Gain",
		"Gain/f2#9": "Gain",
		"A+B#3":     "A+B",
		"A+B/f1#4":  "A+B",
		"worker1":   "worker1",
	}
	for in, want := range cases {
		if got := BaseName(in); got != want {
			t.Errorf("BaseName(%q) = %q, want %q", in, got, want)
		}
	}
	if parts := SplitConstituents("A+B+C"); !reflect.DeepEqual(parts, []string{"A", "B", "C"}) {
		t.Errorf("SplitConstituents = %v", parts)
	}
}

// TestMaterializeReplicaRemap: a fault against a source filter name that
// fission replicated resolves onto the replica handling that original
// firing — replica r of k takes original firings r, r+k, r+2k, ... so
// original firing n maps to replica n%k at its local firing n/k.
func TestMaterializeReplicaRemap(t *testing.T) {
	p, err := ParsePlan("panic:Gain@5")
	if err != nil {
		t.Fatal(err)
	}
	filters := []string{"Src#1", "Gain/f0#2", "Gain/f1#3", "Gain/f2#4", "Snk#5"}
	fs, err := p.Materialize(filters)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 || fs[0].Filter != "Gain/f2#4" || fs[0].Firing != 1 {
		t.Fatalf("got %v, want panic on Gain/f2#4 at local firing 1", fs)
	}
}

// TestMaterializeFusedConstituent: a fault against a source filter that
// fusion folded into a segment resolves onto the fused instance.
func TestMaterializeFusedConstituent(t *testing.T) {
	p, err := ParsePlan("corrupt:B@2")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := p.Materialize([]string{"Src#1", "A+B#2", "Snk#3"})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 || fs[0].Filter != "A+B#2" || fs[0].Firing != 2 {
		t.Fatalf("got %v, want corrupt on A+B#2 at firing 2", fs)
	}
}

// TestMaterializeAmbiguousRejected: a base name matching several instances
// that do not form a complete replica set is an error, not a guess.
func TestMaterializeAmbiguousRejected(t *testing.T) {
	p, err := ParsePlan("panic:Gain@5")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Materialize([]string{"Gain#1", "Gain#2"}); err == nil {
		t.Fatal("ambiguous duplicate instances should be rejected")
	}
	if _, err := p.Materialize([]string{"Gain/f0#1", "Gain/f2#2"}); err == nil {
		t.Fatal("an incomplete replica set should be rejected")
	}
}

// TestPoliciesResolveInstances: per-filter policies written against source
// names apply to flattened, replicated, and fused instances.
func TestPoliciesResolveInstances(t *testing.T) {
	ps, err := ParsePolicies("Gain=retry, B=restart, default=fail")
	if err != nil {
		t.Fatal(err)
	}
	if got := ps.For("Gain/f1#7"); got.Action != Retry {
		t.Errorf("replica policy = %v, want retry", got)
	}
	if got := ps.For("A+B#3"); got.Action != Restart {
		t.Errorf("fused-constituent policy = %v, want restart", got)
	}
	if got := ps.For("Other#2"); got.Action != Fail {
		t.Errorf("fallback = %v, want fail", got)
	}
}

func TestParsePlanShardFaults(t *testing.T) {
	p, err := ParsePlan("crash:shard1@32; stall:shard0@5, partition:shard2@8")
	if err != nil {
		t.Fatal(err)
	}
	want := []ShardFault{
		{Shard: 1, Iter: 32, Kind: Crash},
		{Shard: 0, Iter: 5, Kind: Stall},
		{Shard: 2, Iter: 8, Kind: Partition},
	}
	if !reflect.DeepEqual(p.ShardFaults, want) {
		t.Fatalf("got %v, want %v", p.ShardFaults, want)
	}
	if got := want[2].String(); got != "partition:shard2@8" {
		t.Fatalf("String() = %q", got)
	}
	// Partition targets shards, never filters or workers; shard faults
	// reject filter-only kinds.
	for _, bad := range []string{"partition:LowPass@3", "partition:worker1@3", "panic:shard0@3", "slow:shard0@3", "crash:shard-1@3"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) should fail", bad)
		}
	}
	// A shard-only plan is non-empty, and shard faults coexist with the
	// filter and worker forms in one spec.
	if p.Empty() {
		t.Fatal("shard-only plan reported empty")
	}
	mixed, err := ParsePlan("panic:LowPass@3; crash:worker1@9; crash:shard0@12")
	if err != nil {
		t.Fatal(err)
	}
	if len(mixed.Faults) != 1 || len(mixed.WorkerFaults) != 1 || len(mixed.ShardFaults) != 1 {
		t.Fatalf("mixed plan parsed as %+v", mixed)
	}
}
