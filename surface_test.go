package streamit

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// closedForm is why sdep's eleven transfer functions stay.
const closedForm = "one of the paper's closed-form transfer functions, the oracle the simulated sdep is checked against; ROADMAP item 11 is their first runtime consumer"

// surfaceAllow lists the exported functions and methods under internal/
// that no shipped file calls, keyed pkg.Name or pkg.Type.Name, each with
// the reason it stays.
var surfaceAllow = map[string]string{
	"sdep.ComposeMax":       closedForm,
	"sdep.ComposeMin":       closedForm,
	"sdep.RRSplitMax1":      closedForm,
	"sdep.RRSplitMax2":      closedForm,
	"sdep.RRJoinMin1":       closedForm,
	"sdep.RRJoinMin2":       closedForm,
	"sdep.RRJoinMax":        closedForm,
	"sdep.DupSplitMax":      closedForm,
	"sdep.DupSplitMin":      closedForm,
	"sdep.FeedbackJoinMin2": closedForm,
	"sdep.FeedbackJoinMax":  closedForm,

	"exec.ExecError.Unwrap": "reached through errors.Is/As, never by name",
	"vm.Program.SpanCounts": "feeds core.TestSuiteSpanKernels, the CI gate on which loops compile to span instructions",
	"obs.Recorder.SetClock": "the fake clock behind obs/testdata/trace_golden.json",
	"exec.SliceSource":      "cross-package test fixture, the pair of SliceSink (which examples/quickstart uses)",
	"exec.RunCollect":       "cross-package test fixture over New and SliceSink",
	"apps.Reverb":           "the suites' feedback-loop program (pipelined conformance, crash matrix, pack clusters)",
}

// shippingRoots are the trees whose non-test files ship: a use there is a
// shipping caller.
var shippingRoots = []string{"internal", "cmd", "examples", "benchmark"}

// TestExportedSurfaceHasShippingCallers fails for every exported function
// or method declared in a non-test file under internal/ that no non-test
// file of internal/, cmd/, examples/ or benchmark/ uses. Uses are resolved
// by type, so a same-named method of another type is no caller. A method
// also counts as used when its type implements an interface that has it,
// from the type-checked packages or the standard library they import:
// dynamic dispatch (an Error, a String, a Write) reaches it unnamed.
func TestExportedSurfaceHasShippingCallers(t *testing.T) {
	l := &surfaceLoader{
		fset:  token.NewFileSet(),
		std:   importer.ForCompiler(token.NewFileSet(), "source", nil).(types.ImporterFrom),
		dirs:  map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		infos: map[string]*types.Info{},
		uses:  map[types.Object]bool{},
		ifces: map[*types.Interface]bool{types.Universe.Lookup("error").Type().Underlying().(*types.Interface): true},
	}
	for _, root := range shippingRoots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); !ok {
				return err // a file the default build leaves out, such as race_on.go
			}
			f, err := parser.ParseFile(l.fset, path, nil, parser.SkipObjectResolution)
			if err == nil {
				dir := filepath.ToSlash(filepath.Dir(path))
				l.dirs[dir] = append(l.dirs[dir], f)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	dirs := make([]string, 0, len(l.dirs))
	for dir := range l.dirs {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		if _, err := l.load(modulePath + "/" + dir); err != nil {
			t.Fatal(err)
		}
	}

	declared := map[string]*types.Func{}
	for _, dir := range dirs {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, f := range l.dirs[dir] {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.IsExported() {
					f := l.infos[dir].Defs[fn.Name].(*types.Func)
					declared[surfaceKey(f)] = f
				}
			}
		}
	}

	var orphans []string
	for key, f := range declared {
		if !l.used(f) && surfaceAllow[key] == "" {
			orphans = append(orphans, l.fset.Position(f.Pos()).String()+": "+key)
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("%s is exported but only tests call it: give it a shipping caller, unexport it, or delete it", o)
	}
	for key := range surfaceAllow {
		if f, ok := declared[key]; !ok || l.used(f) {
			t.Errorf("surfaceAllow[%q] is stale: the name is gone or has a shipping caller now", key)
		}
	}
}

// modulePath is the module's import path prefix, as go.mod names it.
const modulePath = "streamit"

// surfaceLoader type-checks the shipping packages from source, each once,
// and records every object a shipping file uses and every interface type
// in sight. Standard-library imports come from the source importer.
type surfaceLoader struct {
	fset  *token.FileSet
	std   types.ImporterFrom
	dirs  map[string][]*ast.File // by directory, relative to the module root
	pkgs  map[string]*types.Package
	infos map[string]*types.Info
	uses  map[types.Object]bool
	ifces map[*types.Interface]bool
}

func (l *surfaceLoader) Import(path string) (*types.Package, error) { return l.load(path) }

// load type-checks the package at import path, or imports it from the
// standard library.
func (l *surfaceLoader) load(path string) (*types.Package, error) {
	if p := l.pkgs[path]; p != nil {
		return p, nil
	}
	dir, ours := strings.CutPrefix(path, modulePath+"/")
	if !ours {
		p, err := l.std.ImportFrom(path, ".", 0)
		if err == nil {
			l.pkgs[path] = p
			l.collect(p.Scope())
		}
		return p, err
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{}}
	p, err := (&types.Config{Importer: l}).Check(path, l.fset, l.dirs[dir], info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	l.infos[dir] = info
	for _, obj := range info.Uses {
		l.uses[obj] = true
	}
	for _, tv := range info.Types {
		if ifc, ok := tv.Type.Underlying().(*types.Interface); ok {
			l.ifces[ifc] = true
		}
	}
	l.collect(p.Scope())
	return p, nil
}

// collect records the interface types a package scope declares.
func (l *surfaceLoader) collect(scope *types.Scope) {
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			if ifc, ok := tn.Type().Underlying().(*types.Interface); ok {
				l.ifces[ifc] = true
			}
		}
	}
}

// used reports whether a shipping file uses f by name, or f is a method
// that an interface in sight reaches by dispatch.
func (l *surfaceLoader) used(f *types.Func) bool {
	if l.uses[f] {
		return true
	}
	sig := f.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	for ifc := range l.ifces {
		for i := 0; i < ifc.NumMethods(); i++ {
			if ifc.Method(i).Name() == f.Name() && (types.Implements(recv, ifc) || types.Implements(types.NewPointer(recv), ifc)) {
				return true
			}
		}
	}
	return false
}

// surfaceKey names f as surfaceAllow keys it: pkg.Name or pkg.Type.Name.
func surfaceKey(f *types.Func) string {
	key := f.Pkg().Name() + "."
	if recv := f.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			key += named.Obj().Name() + "."
		}
	}
	return key + f.Name()
}
