package lang

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"streamit/internal/exec"
	"streamit/internal/ir"
	"streamit/internal/linear"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
	"streamit/internal/wire"
)

func newDetRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func load(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex(`float->float filter F(int N) { work pop 1 { push(3.5e2); } } // c`)
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		if tk.Kind != TokEOF {
			texts = append(texts, tk.Text)
		}
	}
	joined := strings.Join(texts, " ")
	for _, want := range []string{"float -> float filter F", "3.5e2", "work pop 1"} {
		if !strings.Contains(joined, want) {
			t.Errorf("token stream missing %q:\n%s", want, joined)
		}
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("filter @"); err == nil {
		t.Error("expected error for @")
	}
	if _, err := Lex("/* unterminated"); err == nil {
		t.Error("expected error for unterminated comment")
	}
}

func TestParseErrorsHavePositions(t *testing.T) {
	_, err := Parse("float->float banana F() {}")
	if err == nil || !strings.Contains(err.Error(), "1:") {
		t.Errorf("expected positioned parse error, got %v", err)
	}
	_, err = Parse("float->float filter F() { work pop 1 { push( } }")
	if err == nil {
		t.Error("expected parse error for bad expression")
	}
}

// fieldState reads a filter's field state out of the engine's checkpoint
// image (the shipped view of a running program's state): the header, then
// per node its firing count and state section, up to f's node.
func fieldState(t *testing.T, e *exec.Engine, f *ir.Filter) *wfunc.State {
	t.Helper()
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf, 0); err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader("checkpoint", buf.Bytes())
	r.Raw(8)   // magic
	r.U32()    // version
	r.U64()    // fingerprint
	r.I64()    // iteration
	r.I64()    // firings
	r.Count(9) // nodes
	var st *wfunc.State
	for id := 0; id <= e.G.FilterNode[f].ID; id++ {
		r.I64() // fired
		st = exec.ReadNodeState(r)
	}
	if err := r.Err(); err != nil || st == nil {
		t.Fatalf("no field state for %s in the image (%v)", f.Kernel.Name, err)
	}
	return st
}

// elaborateAndRun compiles a testdata program and runs it, returning the
// engine for inspection.
func elaborateAndRun(t *testing.T, file string, iters int) *exec.Engine {
	t.Helper()
	prog, err := ParseAndElaborate(load(t, file), "Main")
	if err != nil {
		t.Fatal(err)
	}
	e, err := exec.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(iters); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestFIRProgramRuns(t *testing.T) {
	e := elaborateAndRun(t, "fir.str", 16)
	if e.Firings == 0 {
		t.Fatal("no firings")
	}
}

func TestFIRProgramValues(t *testing.T) {
	// Replace the sink with a collector by rebuilding the pipeline by hand
	// around the parsed MovingAvg filter.
	prog, err := ParseAndElaborate(load(t, "fir.str"), "Main")
	if err != nil {
		t.Fatal(err)
	}
	// Find MovingAvg's kernel via the flattened graph and check linearity.
	g, err := ir.Flatten(prog)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range g.Nodes {
		if n.Kind == ir.NodeFilter && strings.HasPrefix(n.Filter.Kernel.Name, "MovingAvg") {
			found = true
			rep, err := linear.Extract(n.Filter.Kernel)
			if err != nil {
				t.Fatalf("MovingAvg should be linear: %v", err)
			}
			for i := 0; i < 4; i++ {
				if math.Abs(rep.A[0][i]-0.25) > 1e-12 {
					t.Errorf("coeff %d = %v, want 0.25", i, rep.A[0][i])
				}
			}
		}
	}
	if !found {
		t.Fatal("MovingAvg filter not found in graph")
	}
}

func TestCompileTimeLoopBuildsSplitJoin(t *testing.T) {
	prog, err := ParseAndElaborate(load(t, "eq.str"), "Main")
	if err != nil {
		t.Fatal(err)
	}
	g, err := ir.Flatten(prog)
	if err != nil {
		t.Fatal(err)
	}
	gains := 0
	for _, n := range g.Nodes {
		if n.Kind == ir.NodeFilter && strings.HasPrefix(n.Filter.Kernel.Name, "Gain") {
			gains++
		}
	}
	if gains != 3 {
		t.Errorf("expected 3 Gain instances from the compile-time loop, got %d", gains)
	}
	// And the program runs.
	e, err := exec.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(4); err != nil {
		t.Fatal(err)
	}
}

func TestFeedbackEcho(t *testing.T) {
	prog, err := ParseAndElaborate(load(t, "echo.str"), "Main")
	if err != nil {
		t.Fatal(err)
	}
	g, err := ir.Flatten(prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Compute(g); err != nil {
		t.Fatal(err)
	}
	e, err := exec.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(8); err != nil {
		t.Fatal(err)
	}
}

func TestTeleportProgram(t *testing.T) {
	prog, err := ParseAndElaborate(load(t, "freqhop.str"), "Main")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Portals) != 1 || len(prog.Portals[0].Receivers) != 1 {
		t.Fatalf("portal registration failed: %+v", prog.Portals)
	}
	e, err := exec.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(200); err != nil {
		t.Fatal(err)
	}
	// The handler must have fired: the mixer's freq field should be 2.
	mixer := prog.Portals[0].Receivers[0]
	st := fieldState(t, e, mixer)
	// freq is the second scalar field (count, freq).
	if st.Scalars[1] != 2 {
		t.Errorf("mixer freq = %v, want 2 (handler never delivered?)", st.Scalars[1])
	}
}

func TestElaborationErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"unknown stream", `void->void pipeline Main() { add Nope(); }`, "unknown stream"},
		{"bad arity", `
			float->float filter F(int N) { work pop 1 push 1 { push(pop()); } }
			void->void pipeline Main() { add F(); }`, "parameters"},
		{"missing work", `float->float filter F() { }`, "no work function"},
		{"undefined var", `
			float->float filter F() { work pop 1 push 1 { push(zzz); } }
			void->void pipeline Main() { add F(); }`, "undefined"},
		{"missing split", `
			float->float splitjoin SJ() { add Identity(); join roundrobin; }
			void->void pipeline Main() { add SJ(); }`, "split"},
		{"rate mismatch", `
			void->float filter Src() { work push 2 { push(1.0); } }
			void->void pipeline Main() { add Src(); }`, "push"},
		{"compile-time division by zero", `
			float->float filter F(int N) { work pop 1 push 1 { push(pop() * N); } }
			void->void pipeline Main() { add F(4 / (2 - 2)); }`, "division by zero"},
		{"compile-time modulo by zero", `
			float->float filter F(int N) { work pop 1 push 1 { push(pop() * N); } }
			void->void pipeline Main() { add F(7 % 0); }`, "modulo by zero"},
		{"compile-time builtin arity", `
			float->float filter F(int N) { work pop 1 push 1 { push(pop() * N); } }
			void->void pipeline Main() { add F(pow(2)); }`, "pow takes 2 argument"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseAndElaborate(c.src, "Main")
			if err == nil {
				t.Fatalf("expected error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestOpAssignAndIncrement(t *testing.T) {
	src := `
		void->float filter Counter() {
			float n;
			work push 1 {
				n += 2;
				n--;
				push(n);
			}
		}
		float->void filter Out() { work pop 1 { pop(); } }
		void->void pipeline Main() { add Counter(); add Out(); }
	`
	prog, err := ParseAndElaborate(src, "Main")
	if err != nil {
		t.Fatal(err)
	}
	e, err := exec.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(3); err != nil {
		t.Fatal(err)
	}
	// n goes 1, 2, 3, ...
	var counter *ir.Filter
	for f := range e.G.FilterNode {
		if strings.HasPrefix(f.Kernel.Name, "Counter") {
			counter = f
		}
	}
	if counter == nil {
		t.Fatal("counter not found")
	}
	if got := fieldState(t, e, counter).Scalars[0]; got != 3 {
		t.Errorf("counter state = %v, want 3", got)
	}
}

func TestWhileLoopInFilter(t *testing.T) {
	src := `
		void->float filter Src() {
			float n;
			work push 1 {
				float x = n;
				float steps = 0;
				while (x > 1) { x = x / 2; steps += 1; }
				push(steps);
				n = n + 1;
			}
		}
		float->void filter Out() { work pop 1 { pop(); } }
		void->void pipeline Main() { add Src(); add Out(); }
	`
	prog, err := ParseAndElaborate(src, "Main")
	if err != nil {
		t.Fatal(err)
	}
	e, err := exec.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
}

func TestTernaryAndBitOps(t *testing.T) {
	src := `
		void->int filter Bits() {
			int n;
			work push 1 {
				push((n & 3) == 3 ? 1 : 0);
				n = n + 1;
			}
		}
		int->void filter Out() { work pop 1 { pop(); } }
		void->void pipeline Main() { add Bits(); add Out(); }
	`
	if _, err := ParseAndElaborate(src, "Main"); err != nil {
		t.Fatal(err)
	}
}

// TestMaxLatencyDirective parses and enforces the paper's MAX_LATENCY:
// the upstream filter may not run ahead of the sink by more than n of the
// sink's executions.
func TestMaxLatencyDirective(t *testing.T) {
	src := `
void->float filter Src() { float n; work push 1 { push(n); n = n + 1; } }
float->float filter Mid() { work pop 1 push 1 { push(pop()); } }
float->void filter Out() { work pop 1 { pop(); } }
void->void pipeline Main() {
    add Src();
    add Mid() as mid;
    add Out() as out;
    maxlatency(mid, out, 5);
}
`
	prog, err := ParseAndElaborate(src, "Main")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Constraints) != 1 || prog.Constraints[0].Latency != 5 {
		t.Fatalf("constraints = %+v", prog.Constraints)
	}
	g, err := ir.Flatten(prog)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	e, err := exec.NewFromGraphOpts(g, s, exec.Options{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(50); err != nil {
		t.Fatal(err)
	}
	// What mid pushed and out has not popped is what sits between them.
	c := prog.Constraints[0]
	var pushed, popped int64
	for _, fp := range e.Profile().Snapshot() {
		switch fp.Name {
		case g.FilterNode[c.Upstream].Name:
			pushed = fp.Pushed
		case g.FilterNode[c.Downstream].Name:
			popped = fp.Popped
		}
	}
	if pushed == 0 || pushed-popped > 5 {
		t.Errorf("mid pushed %d, out popped %d; MAX_LATENCY allows 5 in between", pushed, popped)
	}
}

// TestMaxLatencyUnknownName is an elaboration error.
func TestMaxLatencyUnknownName(t *testing.T) {
	src := `
void->float filter Src() { work push 1 { push(1.0); } }
float->void filter Out() { work pop 1 { pop(); } }
void->void pipeline Main() {
    add Src();
    add Out();
    maxlatency(a, b, 3);
}
`
	if _, err := ParseAndElaborate(src, "Main"); err == nil {
		t.Fatal("expected error for unknown instance names")
	}
}

// TestPrintln wires the language's println through the engine's printer.
func TestPrintln(t *testing.T) {
	src := `
void->float filter Src() {
    float n;
    work push 1 {
        println(n * 10);
        push(n);
        n = n + 1;
    }
}
float->void filter Out() { work pop 1 { pop(); } }
void->void pipeline Main() { add Src(); add Out(); }
`
	prog, err := ParseAndElaborate(src, "Main")
	if err != nil {
		t.Fatal(err)
	}
	e, err := exec.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	var printed []float64
	e.Printer = func(node string, v float64) { printed = append(printed, v) }
	if err := e.Run(3); err != nil {
		t.Fatal(err)
	}
	if len(printed) < 3 || printed[0] != 0 || printed[1] != 10 || printed[2] != 20 {
		t.Errorf("printed = %v", printed)
	}
}

// TestParserGrammarErrors sweeps malformed programs; each must produce a
// positioned, comprehensible error rather than a panic or silence.
func TestParserGrammarErrors(t *testing.T) {
	cases := []string{
		`float->float filter F() { work pop 1 push 1 { push(pop() } }`,
		`float->float filter F() { work pop 1 push 1 { push(pop()); } `,
		`float->float pipeline P() { add ; }`,
		`float->float splitjoin S() { split banana; }`,
		`portal ;`,
		`float->float filter F(int) { work pop 1 push 1 { push(pop()); } }`,
		`float->float filter F() { float[, x; work pop 1 push 1 { push(pop()); } }`,
		`float->float filter F() { work pop 1 push 1 { for (;;) } }`,
		`float->float filter F() { work pop 1 push 1 { x += ; } }`,
		`float->float filter F() { work pop 1 push 1 { send p.h(1) latency; } }`,
		`void->void pipeline Main() { maxlatency(a); }`,
	}
	for i, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("case %d: expected parse error for %q", i, src)
		}
	}
}

// TestParserAcceptsFullGrammar exercises remaining syntax corners in one
// program: ternary, bit ops, op-assign, while/break/continue, boolean
// params, block comments, scientific literals.
func TestParserAcceptsFullGrammar(t *testing.T) {
	src := `
/* block comment
   spanning lines */
portal ctl;

void->int filter Gen(boolean fancy) {
    int n;
    work push 2 {
        int v = fancy ? (n & 7) : (n | 1);
        push(v << 1);
        push(v >> 1);
        n += 1;
        while (v > 100) { v /= 2; if (v == 50) break; else continue; }
    }
}

int->void filter Eat() {
    work pop 2 { pop(); pop(); }
}

void->void pipeline Main() {
    add Gen(true);
    add Eat();
}
`
	prog, err := ParseAndElaborate(src, "Main")
	if err != nil {
		t.Fatal(err)
	}
	e, err := exec.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(4); err != nil {
		t.Fatal(err)
	}
}

// TestScientificLiterals parse as floats.
func TestScientificLiterals(t *testing.T) {
	toks, err := Lex("3.5e2 1e-3 2E+4 7")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokKind{TokFloat, TokFloat, TokFloat, TokInt, TokEOF}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d (%q) kind = %v, want %v", i, toks[i].Text, toks[i].Kind, k)
		}
	}
}

// TestNestedCompositeElaboration: splitjoins of pipelines of splitjoins.
func TestNestedCompositeElaboration(t *testing.T) {
	src := `
void->float filter Src() { float n; work push 1 { push(n); n = n + 1; } }
float->float filter G(float g) { work pop 1 push 1 { push(pop() * g); } }
float->float splitjoin Inner(float base) {
    split roundrobin;
    add G(base);
    add G(base + 1);
    join roundrobin;
}
float->float pipeline Branch(float base) {
    add G(0.5);
    add Inner(base);
}
float->float splitjoin Outer() {
    split duplicate;
    add Branch(1.0);
    add Branch(3.0);
    join roundrobin(2, 2);
}
float->void filter Out() { work pop 4 { for (int i = 0; i < 4; i++) pop(); } }
void->void pipeline Main() { add Src(); add Outer(); add Out(); }
`
	prog, err := ParseAndElaborate(src, "Main")
	if err != nil {
		t.Fatal(err)
	}
	e, err := exec.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(6); err != nil {
		t.Fatal(err)
	}
	g := e.G
	gains := 0
	for _, n := range g.Nodes {
		if n.Kind == ir.NodeFilter && strings.HasPrefix(n.Filter.Kernel.Name, "G#") {
			gains++
		}
	}
	if gains != 6 {
		t.Errorf("expected 6 G instances, got %d", gains)
	}
}

// TestParserRobustness mutates a valid program by deleting random spans;
// every mutation must either parse or produce an error — never panic.
func TestParserRobustness(t *testing.T) {
	base := load(t, "fir.str")
	rng := newDetRand(17)
	for trial := 0; trial < 200; trial++ {
		src := base
		for cut := 0; cut < 1+trial%3; cut++ {
			if len(src) < 10 {
				break
			}
			start := rng.Intn(len(src) - 5)
			end := start + 1 + rng.Intn(5)
			if end > len(src) {
				end = len(src)
			}
			src = src[:start] + src[end:]
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: parser panicked: %v\nsource:\n%s", trial, r, src)
				}
			}()
			_, _ = ParseAndElaborate(src, "Main")
		}()
	}
}
