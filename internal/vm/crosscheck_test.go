package vm_test

// Backend equivalence crosscheck: every application in the benchmark
// suites must produce bit-identical results on the bytecode VM and the
// tree-walking interpreter — the checkpoint image (channel contents, filter
// field state, firing counts, pending messages) and println output, all
// compared via float64 bit patterns after a multi-iteration run. This is
// the acceptance gate for the VM backend: any divergence, however small,
// fails loudly with the app and the first differing byte or print.

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"streamit/internal/apps"
	"streamit/internal/exec"
	"streamit/internal/ir"
	"streamit/internal/sched"
)

// backendRun is everything observable about one engine run.
type backendRun struct {
	graph  *ir.Graph
	engine *exec.Engine
	prints []string // "node:bits" in emission order
}

func runOn(t *testing.T, prog *ir.Program, iters int, backend exec.Backend) *backendRun {
	t.Helper()
	g, err := ir.Flatten(prog)
	if err != nil {
		t.Fatalf("flatten: %v", err)
	}
	s, err := sched.Compute(g)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	e, err := exec.NewFromGraphBackend(g, s, backend)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	r := &backendRun{graph: g, engine: e}
	e.Printer = func(node string, v float64) {
		r.prints = append(r.prints, fmt.Sprintf("%s:%016x", node, math.Float64bits(v)))
	}
	if err := e.Run(iters); err != nil {
		t.Fatalf("run on %v: %v", backend, err)
	}
	return r
}

// image is the engine's complete execution state as a checkpoint.
func (r *backendRun) image(t *testing.T, iters int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.engine.WriteCheckpoint(&buf, int64(iters)); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	return buf.Bytes()
}

// crosscheck runs prog-builder twice (once per backend) and compares every
// observable bit of the final execution state.
func crosscheck(t *testing.T, build func() *ir.Program, iters int) {
	t.Helper()
	vmRun := runOn(t, build(), iters, exec.BackendVM)
	inRun := runOn(t, build(), iters, exec.BackendInterp)

	// The graphs are built identically, so IDs correspond.
	if len(vmRun.graph.Nodes) != len(inRun.graph.Nodes) || len(vmRun.graph.Edges) != len(inRun.graph.Edges) {
		t.Fatalf("graph shapes differ: %d/%d nodes, %d/%d edges",
			len(vmRun.graph.Nodes), len(inRun.graph.Nodes),
			len(vmRun.graph.Edges), len(inRun.graph.Edges))
	}

	// One checkpoint image holds every node's firing count and field state,
	// every edge's counters and residual items (peek margins, split/join
	// buffering) and the pending messages, all as float64 bit patterns.
	vImg, iImg := vmRun.image(t, iters), inRun.image(t, iters)
	if !bytes.Equal(vImg, iImg) {
		at := 0
		for at < len(vImg) && at < len(iImg) && vImg[at] == iImg[at] {
			at++
		}
		t.Errorf("checkpoint images differ at byte %d (%d bytes on vm, %d on interp)", at, len(vImg), len(iImg))
	}

	// println output, in order, bit-exact.
	if len(vmRun.prints) != len(inRun.prints) {
		t.Fatalf("print counts differ: %d on vm, %d on interp", len(vmRun.prints), len(inRun.prints))
	}
	for i := range vmRun.prints {
		if vmRun.prints[i] != inRun.prints[i] {
			t.Fatalf("print %d differs: vm %s interp %s", i, vmRun.prints[i], inRun.prints[i])
		}
	}
}

// TestBackendEquivalenceSuite runs the full 12-application parallelization
// suite on both backends.
func TestBackendEquivalenceSuite(t *testing.T) {
	for _, app := range apps.Suite() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			crosscheck(t, app.Build, 20)
		})
	}
}

// TestBackendEquivalenceLinearSuite covers the linear-optimization suite
// (heavy FIR work functions — the VM's hottest path).
func TestBackendEquivalenceLinearSuite(t *testing.T) {
	for _, app := range apps.LinearSuite() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			crosscheck(t, app.Build, 20)
		})
	}
}

// TestBackendEquivalenceFreqHop covers teleport messaging: the frequency-
// hopping radio's detector sends hop messages whose delivery points (and
// the resulting state changes) must coincide exactly across backends.
// Both the teleport and the hand-synchronized variants run long enough to
// trigger multiple hops.
func TestBackendEquivalenceFreqHop(t *testing.T) {
	for _, teleport := range []bool{true, false} {
		teleport := teleport
		t.Run(fmt.Sprintf("teleport=%v", teleport), func(t *testing.T) {
			crosscheck(t, func() *ir.Program { return apps.FreqHoppingRadio(teleport) }, 60)
		})
	}
}
