package streamit

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the documents whose code references TestDocsNameExistingCode
// holds to the tree.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

var (
	codeSpan = regexp.MustCompile("`([^`\n]+)`")
	goPath   = regexp.MustCompile(`^([\w./-]+\.go)(?::\d+)?$`)
	qualName = regexp.MustCompile(`^([a-z]\w*)\.([A-Za-z][A-Za-z0-9]*)(?:\.([A-Za-z][A-Za-z0-9]*))?(?:[({\[].*)?$`)
	testRef  = regexp.MustCompile(`^((?:Test|Fuzz|Benchmark)\w*)(?:/\S*)?$`)
	bareName = regexp.MustCompile(`^([A-Z][A-Za-z0-9]*)\.([A-Za-z][A-Za-z0-9]*)(?:[({\[].*)?$`)
)

// TestDocsNameExistingCode fails for every backticked code reference in
// the documents that names nothing in the tree: a `*.go` path that is
// neither a repository file's path nor a suffix of one, a `pkg.Name` or
// `pkg.Type.Member`, pkg a package under internal/, that the package does
// not declare, a bare `Type.Member`, Type a type some package under
// internal/ declares, that none of those packages declares on it, or a
// `Test…`, `Fuzz…` or `Benchmark…` name, any `/sub` stripped, that no
// _test.go file declares. Member is a method, a struct field or an
// interface method of Type. Go names have no underscore, so
// `exec.mapped_work_x` is a benchmark metric, not a reference; fenced code
// blocks are commands and examples, not references. Both are skipped.
func TestDocsNameExistingCode(t *testing.T) {
	var goFiles []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			goFiles = append(goFiles, filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	decls, tests := packageDecls(t, goFiles), testFuncs(t, goFiles)

	for _, doc := range docFiles {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(src), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
				if why := danglingRef(m[1], goFiles, decls, tests); why != "" {
					t.Errorf("%s:%d: `%s` %s", doc, i+1, m[1], why)
				}
			}
		}
	}
}

// danglingRef says what ref fails to name, or "" when it names existing
// code or is no code reference the gate checks.
func danglingRef(ref string, goFiles []string, decls map[string]map[string]bool, tests map[string]bool) string {
	if m := testRef.FindStringSubmatch(ref); m != nil {
		if !tests[m[1]] {
			return "is no test, fuzz target or benchmark a _test.go file declares"
		}
		return ""
	}
	if m := goPath.FindStringSubmatch(ref); m != nil {
		for _, f := range goFiles {
			if f == m[1] || strings.HasSuffix(f, "/"+m[1]) {
				return ""
			}
		}
		return "is not the path of a Go file in the repository, nor a suffix of one"
	}
	if m := bareName.FindStringSubmatch(ref); m != nil {
		typed := false
		for _, names := range decls {
			if names["type "+m[1]] {
				if names[m[1]+"."+m[2]] {
					return ""
				}
				typed = true
			}
		}
		if typed {
			return "names no member of any type " + m[1] + " declared under internal/"
		}
		return ""
	}
	m := qualName.FindStringSubmatch(ref)
	if m == nil || decls[m[1]] == nil {
		return ""
	}
	name := m[2]
	if m[3] != "" {
		name += "." + m[3]
	}
	if !decls[m[1]][name] {
		return "names nothing declared in internal/" + m[1]
	}
	return ""
}

// packageDecls maps each package directory under internal/ (by its last
// path element) to the names its files declare at top level — functions,
// types, constants and variables — and, as "Type.Member", every method,
// struct field and interface method; "type T" marks each type T.
func packageDecls(t *testing.T, goFiles []string) map[string]map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	decls := map[string]map[string]bool{}
	for _, path := range goFiles {
		if !strings.HasPrefix(path, "internal/") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkg := filepath.Base(filepath.Dir(path))
		if decls[pkg] == nil {
			decls[pkg] = map[string]bool{}
		}
		names := decls[pkg]
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names[d.Name.Name] = true
				} else if recv := typeName(d.Recv.List[0].Type); recv != "" {
					names[recv+"."+d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names[n.Name] = true
						}
					case *ast.TypeSpec:
						names[s.Name.Name], names["type "+s.Name.Name] = true, true
						for _, member := range members(s.Type) {
							names[s.Name.Name+"."+member] = true
						}
					}
				}
			}
		}
	}
	return decls
}

// testFuncs is the set of top-level function names the _test.go files
// declare.
func testFuncs(t *testing.T, goFiles []string) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	names := map[string]bool{}
	for _, path := range goFiles {
		if !strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if d, ok := decl.(*ast.FuncDecl); ok && d.Recv == nil {
				names[d.Name.Name] = true
			}
		}
	}
	return names
}

// typeName is the name of a receiver or embedded field's type: T, *T, T[P]
// or *T[P].
func typeName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// members lists a struct type's fields (an embedded field by its type's
// name) or an interface type's methods.
func members(x ast.Expr) []string {
	var fields *ast.FieldList
	switch e := x.(type) {
	case *ast.StructType:
		fields = e.Fields
	case *ast.InterfaceType:
		fields = e.Methods
	default:
		return nil
	}
	var out []string
	for _, f := range fields.List {
		if len(f.Names) == 0 {
			if name := typeName(f.Type); name != "" {
				out = append(out, name)
			} else if sel, ok := f.Type.(*ast.SelectorExpr); ok {
				out = append(out, sel.Sel.Name)
			}
		}
		for _, n := range f.Names {
			out = append(out, n.Name)
		}
	}
	return out
}
