package streamit

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// closedForm is why sdep's eleven transfer functions stay.
const closedForm = "sdep: one of the paper's closed-form transfer functions, the oracle the simulated sdep is checked against; ROADMAP item 11 is their first runtime consumer"

// surfaceAllow lists the exported names under internal/ that no shipped
// file calls, each with the reason it stays.
var surfaceAllow = map[string]string{
	"ComposeMax":       closedForm,
	"ComposeMin":       closedForm,
	"RRSplitMax1":      closedForm,
	"RRSplitMax2":      closedForm,
	"RRJoinMin1":       closedForm,
	"RRJoinMin2":       closedForm,
	"RRJoinMax":        closedForm,
	"DupSplitMax":      closedForm,
	"DupSplitMin":      closedForm,
	"FeedbackJoinMin2": closedForm,
	"FeedbackJoinMax":  closedForm,

	"Unwrap":      "exec.ExecError: reached through errors.Is/As, never by name",
	"SpanCounts":  "vm.Program: feeds core.TestSuiteSpanKernels, the CI gate on which loops compile to span instructions",
	"SetClock":    "obs.Recorder: the fake clock behind obs/testdata/trace_golden.json",
	"SliceSource": "exec: cross-package test fixture, the pair of SliceSink (which examples/quickstart uses)",
	"RunCollect":  "exec: cross-package test fixture over New and SliceSink",
	"Reverb":      "apps: the suites' feedback-loop program (pipelined conformance, crash matrix, pack clusters)",
}

// TestExportedSurfaceHasShippingCallers fails for every exported function
// or method declared in a non-test file under internal/ whose name is used
// in no non-test file of internal/, cmd/, examples/ or benchmark/ — so a
// suite cannot end up exercising code the binaries never run. Matching is
// by bare name: a use of any same-named identifier counts, so the check
// can miss an orphan but never reports a function that has a caller.
func TestExportedSurfaceHasShippingCallers(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]token.Position{}
	used := map[string]bool{}
	for _, root := range []string{"internal", "cmd", "examples", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			declNames := map[*ast.Ident]bool{}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				declNames[fn.Name] = true
				if root == "internal" && fn.Name.IsExported() {
					if _, seen := declared[fn.Name.Name]; !seen {
						declared[fn.Name.Name] = fset.Position(fn.Name.Pos())
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !declNames[id] {
					used[id.Name] = true
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	var orphans []string
	for name, pos := range declared {
		if !used[name] && surfaceAllow[name] == "" {
			orphans = append(orphans, pos.String()+": "+name)
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("%s is exported but only tests call it: give it a shipping caller, unexport it, or delete it", o)
	}
	for name := range surfaceAllow {
		if _, ok := declared[name]; !ok || used[name] {
			t.Errorf("surfaceAllow[%q] is stale: the name is gone or has a shipping caller now", name)
		}
	}
}
