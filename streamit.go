package streamit

import (
	"streamit/internal/core"
	"streamit/internal/exec"
	"streamit/internal/faults"
	"streamit/internal/fuse"
	"streamit/internal/ir"
	"streamit/internal/linear"
	"streamit/internal/machine"
	"streamit/internal/obs"
	"streamit/internal/partition"
)

// The facade re-exports the library's main types and entry points under a
// single name, so in-module users (cmd/, examples/, tests) can write
// streamit.Compile(...) without importing each subsystem.

// Core graph types.
type (
	// Program bundles a top-level stream with messaging declarations.
	Program = ir.Program
	// Stream is any hierarchical stream node.
	Stream = ir.Stream
	// Filter is the basic computation unit.
	Filter = ir.Filter
	// Pipeline composes children in sequence.
	Pipeline = ir.Pipeline
	// SplitJoin runs children in parallel.
	SplitJoin = ir.SplitJoin
	// FeedbackLoop creates a cycle with delay.
	FeedbackLoop = ir.FeedbackLoop
	// Portal is a teleport-messaging broadcast target.
	Portal = ir.Portal

	// Options configure compilation.
	Options = core.Options
	// Compiled is a verified, scheduled program.
	Compiled = core.Compiled
	// Engine executes a compiled program sequentially.
	Engine = exec.Engine
	// RunOptions select per-run execution choices (work-function backend).
	RunOptions = core.RunOptions
	// Backend names a work-function execution backend.
	Backend = exec.Backend
	// LinearOptions configure the linear optimizer.
	LinearOptions = linear.Options
	// MachineConfig describes the simulated multicore.
	MachineConfig = machine.Config
	// Strategy names a parallelization strategy.
	Strategy = partition.Strategy

	// FaultPlan schedules deterministic filter-level fault injection.
	FaultPlan = faults.Plan
	// RecoveryPolicies map filters to on-error recovery actions.
	RecoveryPolicies = faults.Policies
	// ExecError is the structured runtime error (filter, operation,
	// firing) raised by all three engines.
	ExecError = exec.ExecError
	// DeadlockError is the watchdog's no-progress report with the traced
	// wait-cycle.
	DeadlockError = exec.DeadlockError
	// MachineFaultPlan schedules tile and link failures in the simulator.
	MachineFaultPlan = machine.FaultPlan

	// Profiler holds per-filter runtime counters (enable with
	// RunOptions.Profile, read with the engine's Profile method).
	Profiler = obs.Profiler
	// FilterProfile is one node's profiler snapshot.
	FilterProfile = obs.FilterProfile
	// TraceRecorder collects Chrome trace_event records from a run
	// (attach via RunOptions.TracePath or exec.Options.Trace).
	TraceRecorder = obs.Recorder
)

// Constructors and helpers.
var (
	// Pipe builds a pipeline from children.
	Pipe = ir.Pipe
	// SJ builds a split-join.
	SJ = ir.SJ
	// RoundRobin builds a (weighted) round-robin splitter/joiner spec.
	RoundRobin = ir.RoundRobin
	// Duplicate builds a duplicating-splitter spec.
	Duplicate = ir.Duplicate
	// Identity returns an identity filter of the given type.
	Identity = ir.Identity

	// Compile verifies and schedules a program.
	Compile = core.Compile
	// CompileSource parses, elaborates, and compiles a .str program.
	CompileSource = core.CompileSource

	// DefaultMachine is the 16-tile configuration of the evaluation.
	DefaultMachine = machine.DefaultConfig

	// FuseFilters collapses a pipeline of two or more filters into one IL
	// filter (see internal/fuse: stages before the last must be stateless,
	// and a filter that peeks beyond its pop rate may only come first).
	FuseFilters = fuse.Chain

	// CompileDynamic builds the demand-driven engine for dynamic-rate
	// programs.
	CompileDynamic = core.CompileDynamic

	// ParseBackend parses a -backend style name ("vm", "interp").
	ParseBackend = core.ParseBackend

	// ParseFaultPlan parses a "kind:filter@firing;..." injection spec.
	ParseFaultPlan = faults.ParsePlan
	// ParseRecoveryPolicies parses a "filter=policy,..." recovery spec.
	ParseRecoveryPolicies = faults.ParsePolicies
	// SimulateFaults runs the machine simulator under a tile/link fault
	// plan.
	SimulateFaults = machine.SimulateFaults

	// NewTraceRecorder starts a trace recorder (epoch = now).
	NewTraceRecorder = obs.NewRecorder
)

// Work-function execution backends.
const (
	// BackendVM runs work functions on the bytecode VM (the default).
	BackendVM = exec.BackendVM
	// BackendInterp runs work functions on the tree-walking interpreter.
	BackendInterp = exec.BackendInterp
)

// Parallelization strategies from the paper's evaluation.
const (
	Sequential      = partition.StratSequential
	TaskParallel    = partition.StratTask
	FineGrainedData = partition.StratFineData
	TaskData        = partition.StratCoarseData
	TaskSWP         = partition.StratSWP
	TaskDataSWP     = partition.StratCombined
	SpaceMultiplex  = partition.StratSpace
)
