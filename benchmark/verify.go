package main

import (
	"bytes"
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"

	"streamit/internal/apps"
	"streamit/internal/core"
	"streamit/internal/exec"
	"streamit/internal/ir"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
)

// Output verification. Every workload first runs every program for a fixed
// prefix and compares an FNV-64 of each sink's float64 bit patterns with
// golden.json. The golden file was written by the tree-walking interpreter
// on the sequential engine (go run ./benchmark -write-golden), never by a
// configuration a workload measures.

//go:embed golden.json
var goldenJSON []byte

const goldenSchema = "streamit-benchmark-golden/v1"

type goldenFile struct {
	Schema   string                   `json:"schema"`
	Programs map[string][]goldenCheck `json:"programs"`
}

// goldenCheck is one verified prefix of one program: after the init
// schedule and Iters steady iterations of the original graph, each sink
// has received at least Items items whose first Items hash to FNV64.
type goldenCheck struct {
	Scale string       `json:"scale"`
	Iters int          `json:"iters"`
	Sinks []goldenSink `json:"sinks"`
}

type goldenSink struct {
	Name  string `json:"name"` // node name in the original flat graph
	Items int    `json:"items"`
	FNV64 string `json:"fnv64"`
}

func loadGolden() (*goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	if g.Schema != goldenSchema {
		return nil, fmt.Errorf("golden.json: schema %q, want %q", g.Schema, goldenSchema)
	}
	return &g, nil
}

// check returns the golden prefix of program at the given scale.
func (g *goldenFile) check(program, scale string) (goldenCheck, error) {
	for _, c := range g.Programs[program] {
		if c.Scale == scale {
			return c, nil
		}
	}
	return goldenCheck{}, fmt.Errorf("golden.json has no %s check for %s", scale, program)
}

func hashItems(vs []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// compare checks captured sink streams against the golden prefix. A
// missing sink, a stream shorter than the prefix and a differing hash are
// all errors; extra items past the prefix are fine (rewritten graphs run
// whole multiples of the original iteration).
func (c goldenCheck) compare(got map[string][]float64) error {
	if len(c.Sinks) == 0 {
		return fmt.Errorf("golden check names no sinks")
	}
	for _, s := range c.Sinks {
		vs, ok := got[s.Name]
		if !ok {
			return fmt.Errorf("sink %s: no output captured", s.Name)
		}
		if len(vs) < s.Items {
			return fmt.Errorf("sink %s: stream truncated, %d of %d items", s.Name, len(vs), s.Items)
		}
		if h := hashItems(vs[:s.Items]); h != s.FNV64 {
			return fmt.Errorf("sink %s: hash %s over %d items, golden %s", s.Name, h, s.Items, s.FNV64)
		}
	}
	return nil
}

// sources finds the repository's example programs from the working
// directory (the module root under go run, benchmark/ under go test) and
// keeps their text, so that set-up is timed from text in memory.
type sources struct {
	root  string
	texts map[string]string
}

func findSources() (*sources, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return &sources{root: dir, texts: map[string]string{}}, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("no go.mod above the working directory: run from inside the repository")
		}
		dir = parent
	}
}

func isStr(program string) bool { return strings.HasSuffix(program, ".str") }

// text returns a .str example's source.
func (s *sources) text(program string) (string, error) {
	if t, ok := s.texts[program]; ok {
		return t, nil
	}
	b, err := os.ReadFile(filepath.Join(s.root, "examples", "strprogs", program))
	if err != nil {
		return "", err
	}
	s.texts[program] = string(b)
	return s.texts[program], nil
}

func suiteBuilder(name string) (func() *ir.Program, error) {
	for _, a := range apps.Suite() {
		if a.Name == name {
			return a.Build, nil
		}
	}
	return nil, fmt.Errorf("no suite app named %q", name)
}

// compileProgram takes a program from builder or source text to its
// compiled form: the part of set-up every workload shares.
func (s *sources) compileProgram(name string) (*core.Compiled, error) {
	if isStr(name) {
		src, err := s.text(name)
		if err != nil {
			return nil, err
		}
		return core.CompileSource(src, "Main", core.Options{})
	}
	build, err := suiteBuilder(name)
	if err != nil {
		return nil, err
	}
	return core.Compile(build(), core.Options{})
}

// sinkNodes lists the filters of g that consume a stream and produce none.
func sinkNodes(g *ir.Graph) []*ir.Node {
	var out []*ir.Node
	for _, n := range g.Nodes {
		if n.Kind == ir.NodeFilter && n.IsSink() && n.InEdge() != nil {
			out = append(out, n)
		}
	}
	return out
}

// sinkItems is the number of items all sinks of g receive per steady
// iteration: the unit throughput is counted in, so that graphs whose
// rewrite scaled the steady state compare fairly.
func sinkItems(g *ir.Graph, s *sched.Schedule) int64 {
	var per int64
	for _, n := range g.Nodes {
		if n.IsSink() {
			per += int64(s.Reps[n.ID] * n.TotalPop())
		}
	}
	return per
}

// runSequentialTapped runs c on a sequential engine with every sink tapped
// and returns the sink streams by node name.
func runSequentialTapped(c *core.Compiled, backend exec.Backend, iters int) (map[string][]float64, error) {
	e, err := c.EngineOpts(core.RunOptions{Backend: backend})
	if err != nil {
		return nil, err
	}
	got := map[string][]float64{}
	for _, n := range sinkNodes(c.Graph) {
		name := n.Name
		got[name] = nil
		if err := e.TapSink(name, func(v float64) { got[name] = append(got[name], v) }); err != nil {
			return nil, err
		}
	}
	if err := e.Run(iters); err != nil {
		return nil, err
	}
	return got, nil
}

// collector replaces a sink filter with a native filter of the same rates
// that records what it pops. The concurrent engines have no output hook, so
// this is how their sink streams are observed (the technique of
// internal/exec's conformance tests).
func collector(f *ir.Filter) (*ir.Filter, *[]float64) {
	k := f.Kernel
	peek := max(k.Peek, k.Pop)
	b := wfunc.NewKernel(k.Name, peek, k.Pop, 0)
	b.Dynamic() // stub body; the behaviour is the native closure
	b.WorkBody()
	kc := b.Build()
	kc.Dynamic = false
	kc.Peek, kc.Pop, kc.Push = peek, k.Pop, 0
	got := &[]float64{}
	return &ir.Filter{
		Kernel: kc, In: f.In, Out: ir.TypeVoid,
		WorkFn: func(in, _ wfunc.Tape, _ *wfunc.State) {
			for i := 0; i < kc.Pop; i++ {
				*got = append(*got, in.Pop())
			}
		},
	}, got
}

// swapSinks replaces every static sink of the stream tree with a collector
// and returns the collectors with their output slices.
func swapSinks(s ir.Stream, outs map[*ir.Filter]*[]float64) ir.Stream {
	switch s := s.(type) {
	case *ir.Filter:
		if s.Kernel.Push == 0 && s.Kernel.Pop > 0 && !s.Kernel.Dynamic {
			c, got := collector(s)
			outs[c] = got
			return c
		}
	case *ir.Pipeline:
		for i, c := range s.Children {
			s.Children[i] = swapSinks(c, outs)
		}
	case *ir.SplitJoin:
		for i, c := range s.Children {
			s.Children[i] = swapSinks(c, outs)
		}
	case *ir.FeedbackLoop:
		s.Body = swapSinks(s.Body, outs)
		if s.Loop != nil {
			s.Loop = swapSinks(s.Loop, outs)
		}
	}
	return s
}

// verifyMapped runs one suite app on the mapped engine exactly as its
// workload configures it, with collecting sinks, and checks the sink
// streams against the golden prefix and the final checkpoint image against
// a sequential engine's over the same rewritten graph.
func verifyMapped(w *compiledWorkload, app string, check goldenCheck) error {
	build, err := suiteBuilder(app)
	if err != nil {
		return err
	}
	prog := build()
	outs := map[*ir.Filter]*[]float64{}
	prog.Top = swapSinks(prog.Top, outs)
	c, err := core.Compile(prog, core.Options{})
	if err != nil {
		return err
	}
	me, err := w.mappedEngine(c, variant{})
	if err != nil {
		return err
	}
	// The rewritten steady state covers a whole multiple of the original:
	// run enough of its iterations for every sink to reach the prefix.
	need := map[string]int{}
	for _, s := range check.Sinks {
		need[s.Name] = s.Items
	}
	iters := 1
	names := map[*ir.Filter]string{}
	for f := range outs {
		orig, now := c.Graph.FilterNode[f], me.G.FilterNode[f]
		if orig == nil || now == nil {
			return fmt.Errorf("collector %s missing from the flat graph", f.Kernel.Name)
		}
		names[f] = orig.Name
		per := me.Sch.Reps[now.ID] * f.Kernel.Pop
		if per <= 0 {
			return fmt.Errorf("sink %s receives nothing per iteration", orig.Name)
		}
		iters = max(iters, (need[orig.Name]+per-1)/per)
	}
	if err := me.Run(iters); err != nil {
		return err
	}
	got := map[string][]float64{}
	for f, vs := range outs {
		got[names[f]] = append([]float64(nil), *vs...)
	}
	if err := check.compare(got); err != nil {
		return err
	}
	var gotImg, wantImg bytes.Buffer
	if err := me.WriteCheckpoint(&gotImg, int64(iters)); err != nil {
		return err
	}
	seq, err := exec.NewFromGraphBackend(me.G, me.Sch, exec.BackendVM)
	if err != nil {
		return err
	}
	if err := seq.Run(iters); err != nil {
		return err
	}
	if err := seq.WriteCheckpoint(&wantImg, int64(iters)); err != nil {
		return err
	}
	if !bytes.Equal(gotImg.Bytes(), wantImg.Bytes()) {
		return fmt.Errorf("final image differs from the sequential engine's over the same graph (%d vs %d bytes)", gotImg.Len(), wantImg.Len())
	}
	return nil
}

// writeGolden regenerates golden.json from the interpreter on the
// sequential engine.
func writeGolden(src *sources, path string) error {
	g := goldenFile{Schema: goldenSchema, Programs: map[string][]goldenCheck{}}
	for _, a := range seqSuite.apps {
		c, err := src.compileProgram(a.name)
		if err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
		per := int64(1 << 30)
		for _, n := range sinkNodes(c.Graph) {
			per = min(per, int64(c.Schedule.Reps[n.ID]*n.TotalPop()))
		}
		// Full: the first 4096 items of the slowest sink, but at most 512
		// iterations so programs with one item per iteration stay cheap to
		// verify under fission. Tiny: a few iterations for the smoke test.
		full := int(min((4096+per-1)/per, 512))
		for _, sc := range []struct {
			name  string
			iters int
		}{{"full", full}, {"tiny", 4}} {
			got, err := runSequentialTapped(c, exec.BackendInterp, sc.iters)
			if err != nil {
				return fmt.Errorf("%s: %w", a.name, err)
			}
			check := goldenCheck{Scale: sc.name, Iters: sc.iters}
			for _, n := range sinkNodes(c.Graph) {
				vs := got[n.Name]
				check.Sinks = append(check.Sinks, goldenSink{Name: n.Name, Items: len(vs), FNV64: hashItems(vs)})
			}
			g.Programs[a.name] = append(g.Programs[a.name], check)
		}
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
