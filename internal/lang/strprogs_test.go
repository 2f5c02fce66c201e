package lang

import (
	"os"
	"path/filepath"
	"testing"

	"streamit/internal/exec"
	"streamit/internal/ir"
	"streamit/internal/linear"
)

// hasDynamic reports whether any filter in the program has dynamic rates.
func hasDynamic(prog *ir.Program) bool {
	found := false
	var walk func(ir.Stream)
	walk = func(s ir.Stream) {
		switch s := s.(type) {
		case *ir.Filter:
			if s.Kernel.Dynamic {
				found = true
			}
		case *ir.Pipeline:
			for _, c := range s.Children {
				walk(c)
			}
		case *ir.SplitJoin:
			for _, c := range s.Children {
				walk(c)
			}
		case *ir.FeedbackLoop:
			walk(s.Body)
			if s.Loop != nil {
				walk(s.Loop)
			}
		}
	}
	walk(prog.Top)
	return found
}

// TestExampleProgramsCompileAndRun is the front-end integration test: every
// shipped .str program parses, elaborates, schedules, and executes.
func TestExampleProgramsCompileAndRun(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "strprogs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 3 {
		t.Fatalf("expected at least 3 example programs, found %d", len(entries))
	}
	for _, ent := range entries {
		if filepath.Ext(ent.Name()) != ".str" {
			continue
		}
		ent := ent
		t.Run(ent.Name(), func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join(dir, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			prog, err := ParseAndElaborate(string(src), "Main")
			if err != nil {
				t.Fatal(err)
			}
			if hasDynamic(prog) {
				g, err := ir.Flatten(prog)
				if err != nil {
					t.Fatal(err)
				}
				d, err := exec.NewFromGraphOpts(g, nil, exec.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := d.RunItems(50); err != nil {
					t.Fatal(err)
				}
				return
			}
			e, err := exec.New(prog)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Run(10); err != nil {
				t.Fatal(err)
			}
			if e.Firings == 0 {
				t.Error("no firings")
			}
		})
	}
}

// TestExamplesAreOptimizable: the filter-bank .str program exposes linear
// filters to the optimizer and still runs correctly after optimization.
func TestExamplesAreOptimizable(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "strprogs", "filterbank.str"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ParseAndElaborate(string(src), "Main")
	if err != nil {
		t.Fatal(err)
	}
	lin := linear.Analyze(prog.Top)
	if len(lin) < 4 {
		t.Fatalf("expected several linear filters, found %d", len(lin))
	}
	rep := &linear.Report{}
	top, err := linear.Optimize(prog.Top, linear.Options{Combine: true}, rep)
	if err != nil {
		t.Fatal(err)
	}
	prog.Top = top
	e, err := exec.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(4); err != nil {
		t.Fatal(err)
	}
}
