package dist

import (
	"fmt"

	"streamit/internal/exec"
	"streamit/internal/ir"
	"streamit/internal/lang"
	"streamit/internal/partition"
	"streamit/internal/sched"
)

// Spec names the program a distributed run executes: either textual
// StreamIt source (shipped in the job message) or the name of a program
// in the registry both sides share. The coordinator and every shard
// compile the spec independently; the rewritten graph's fingerprint
// proves they agree, so the elaborated graph itself never crosses the
// wire.
type Spec struct {
	// App names a registry program (see SuiteRegistry).
	App string
	// Source is textual StreamIt source; Top is the stream to elaborate
	// (default "Main").
	Source string
	Top    string
}

// buildProgram materializes a spec into an IR program.
func buildProgram(spec Spec, registry map[string]func() *ir.Program) (*ir.Program, error) {
	switch {
	case spec.Source != "":
		top := spec.Top
		if top == "" {
			top = "Main"
		}
		return lang.ParseAndElaborate(spec.Source, top)
	case spec.App != "":
		build := registry[spec.App]
		if build == nil {
			return nil, fmt.Errorf("dist: app %q is not in the registry", spec.App)
		}
		return build(), nil
	}
	return nil, fmt.Errorf("dist: spec names neither an app nor source text")
}

// jobPlan is the compile artifact both sides derive independently: the
// rewritten graph, its schedule, the exec plan that produced it, and the
// fingerprint that proves two builds agree.
type jobPlan struct {
	prog *ir.Program
	g2   *ir.Graph
	s2   *sched.Schedule
	plan *partition.ExecPlan
	fp   uint64
}

// buildJobPlan compiles and rewrites a program for a distributed run.
// workers is the TOTAL initial worker count (shards × perShard): the
// rewrite is sized once for the full fleet and never rebuilt — recovery
// re-packs the same graph onto fewer shards, keeping the fingerprint.
func buildJobPlan(prog *ir.Program, strategy partition.Strategy, workers int) (*jobPlan, error) {
	if strategy == "" {
		strategy = partition.StratCoarseData
	}
	g, err := ir.Flatten(prog)
	if err != nil {
		return nil, err
	}
	if why := g.LockstepBlocker(); why != "" {
		return nil, fmt.Errorf("dist: %s needs finer-than-batch interleaving; distributed execution wants lockstep", why)
	}
	s, err := sched.Compute(g)
	if err != nil {
		return nil, err
	}
	plan, err := partition.BuildExecPlan(prog, g, s, partition.ExecPlanOptions{
		Strategy: strategy, Workers: workers,
	})
	if err != nil {
		return nil, err
	}
	if plan.Pipelined {
		return nil, fmt.Errorf("dist: strategy %q produces a pipelined plan; distributed execution wants lockstep", strategy)
	}
	g2, err := ir.Flatten(plan.Program)
	if err != nil {
		return nil, err
	}
	s2, err := sched.Compute(g2)
	if err != nil {
		return nil, err
	}
	return &jobPlan{prog: prog, g2: g2, s2: s2, plan: plan, fp: exec.GraphFingerprint(g2, s2)}, nil
}
