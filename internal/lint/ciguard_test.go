package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestRaceListCoversConcurrentPackages guards the hand-maintained CI
// race list against drift: any package whose non-test sources contain a
// `go` statement or a sync.Mutex/RWMutex struct field is concurrent by
// construction and must appear in the `go test -race` step of
// .github/workflows/ci.yml. A new goroutine or mutex in a package the
// list forgot fails here with the package and the reason, instead of
// shipping unraced.
func TestRaceListCoversConcurrentPackages(t *testing.T) {
	root := findModuleRoot(t)
	listed := raceList(t, root)
	concurrent := concurrentPackages(t, root)

	pkgs := make([]string, 0, len(concurrent))
	for pkg := range concurrent {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
	if len(pkgs) == 0 {
		t.Fatal("found no concurrent packages at all; the detector is broken")
	}
	for _, pkg := range pkgs {
		if !listed[pkg] {
			t.Errorf("package ./%s has %s but is missing from the `go test -race` list in .github/workflows/ci.yml",
				pkg, concurrent[pkg])
		}
	}
}

// unsafeFile is the one non-test file of the module that may import
// unsafe: internal/transport's view backend, which sends and receives a
// model's words as the bytes they already are.
const unsafeFile = "internal/transport/words_view.go"

// TestUnsafeIsConfined keeps that a fact: every other non-test file, in
// this module and in the benchmark's, stays inside the type system, and
// the view backend still exists under the name this test guards.
func TestUnsafeIsConfined(t *testing.T) {
	var importers []string
	walkNonTestGo(t, findModuleRoot(t), parser.ImportsOnly, func(rel string, file *ast.File) {
		for _, imp := range file.Imports {
			if imp.Path.Value == `"unsafe"` {
				importers = append(importers, rel)
			}
		}
	})
	if len(importers) != 1 || importers[0] != unsafeFile {
		t.Errorf("non-test files importing unsafe: %v, want exactly %s", importers, unsafeFile)
	}
}

// modelNamers are the only functions of internal/spyker that may name the
// server model, ServerCore.w: the settling accessor, which joins the
// client merge that may still be running off the event loop before it
// hands the model out, the body of that merge, and the constructor that
// allocates the model before any merge exists.
var modelNamers = map[string]bool{"ServerCore.model": true, "ServerCore.runMerge": true, "newServerCore": true}

// TestServerModelHasOneReader keeps every other read and write of the
// server model behind the join: code that named w directly could look at a
// model a worker is still merging into, and nothing but a race would say
// so. It also fails when the accessor or the merge body is renamed.
func TestServerModelHasOneReader(t *testing.T) {
	pkgs, err := Load(findModuleRoot(t), "./internal/spyker")
	if err != nil {
		t.Fatal(err)
	}
	pkg := pkgs[0]
	core, ok := pkg.Types.Scope().Lookup("ServerCore").(*types.TypeName)
	if !ok {
		t.Fatal("internal/spyker declares no ServerCore type")
	}
	var model *types.Var
	st := core.Type().Underlying().(*types.Struct)
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == "w" {
			model = st.Field(i)
		}
	}
	if model == nil {
		t.Fatal("ServerCore has no model field w")
	}
	named := map[string]bool{}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fn.Name.Name
			if key := recvKey(pkg.Info.Defs[fn.Name].(*types.Func)); key != "" {
				name = key[strings.LastIndex(key, ".")+1:] + "." + name
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && pkg.Info.Uses[id] == model {
					named[name] = true
					if !modelNamers[name] {
						t.Errorf("%s: %s names ServerCore.w directly; reach the model through ServerCore.model, which joins the merge first",
							pkg.Fset.Position(id.Pos()), name)
					}
				}
				return true
			})
		}
	}
	for name := range modelNamers {
		if !named[name] {
			t.Errorf("%s does not name ServerCore.w: it was renamed or removed, so this guard no longer knows the accessor", name)
		}
	}
}

// asmDir is the one package of the module with assembly: internal/tensor,
// whose AVX2 kernels share one CPU check (hasAVX2), one dispatch variable
// and one -tags purego fallback.
const asmDir = "internal/tensor"

// TestAssemblyIsConfined keeps that a fact: every .s file of the module
// (the benchmark's included) is in asmDir, and exactly one routine executes
// CPUID, so no second CPU check can disagree with the first.
func TestAssemblyIsConfined(t *testing.T) {
	root := findModuleRoot(t)
	var files []string
	cpuid := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".s") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		files = append(files, rel)
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		routine := ""
		for _, line := range strings.Split(string(raw), "\n") {
			line, _, _ = strings.Cut(line, "//")
			fields := strings.Fields(line)
			switch {
			case len(fields) >= 2 && fields[0] == "TEXT":
				routine = rel + ":" + strings.TrimSuffix(fields[1], ",")
			case len(fields) >= 1 && fields[0] == "CPUID":
				cpuid[routine] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking module: %v", err)
	}
	if len(files) == 0 {
		t.Fatalf("no .s file in the module: the %s backend is gone or the walk is broken", asmDir)
	}
	for _, f := range files {
		if filepath.ToSlash(filepath.Dir(f)) != asmDir {
			t.Errorf("assembly outside %s: %s", asmDir, f)
		}
	}
	if len(cpuid) != 1 {
		t.Errorf("routines executing CPUID: %v, want exactly one", cpuid)
	}
}

// walkNonTestGo parses every non-test Go file under root (build outputs,
// .git and testdata aside) and hands it to visit with its
// module-relative slash path.
func walkNonTestGo(t *testing.T, root string, mode parser.Mode, visit func(rel string, file *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, mode)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		visit(filepath.ToSlash(rel), file)
		return nil
	})
	if err != nil {
		t.Fatalf("walking module: %v", err)
	}
}

// findModuleRoot walks up from the test's working directory to go.mod.
func findModuleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above the test directory")
		}
		dir = parent
	}
}

// raceList extracts the package arguments of the `go test -race` CI step
// as module-relative slash paths ("internal/live").
func raceList(t *testing.T, root string) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatalf("reading CI workflow: %v", err)
	}
	m := regexp.MustCompile(`(?m)^\s*run:\s*go test -race (.+)$`).FindStringSubmatch(string(raw))
	if m == nil {
		t.Fatal("ci.yml has no `run: go test -race ...` step to guard")
	}
	listed := map[string]bool{}
	for _, f := range strings.Fields(m[1]) {
		if strings.HasPrefix(f, "-") {
			continue
		}
		listed[strings.TrimPrefix(f, "./")] = true
	}
	if len(listed) == 0 {
		t.Fatal("race step lists no packages")
	}
	return listed
}

// concurrentPackages maps each module-relative package directory whose
// non-test sources spawn goroutines or declare mutex fields to a short
// human reason.
func concurrentPackages(t *testing.T, root string) map[string]string {
	t.Helper()
	found := map[string]string{}
	walkNonTestGo(t, root, 0, func(rel string, file *ast.File) {
		reason := concurrencyMarker(file)
		if reason == "" {
			return
		}
		pkg := filepath.ToSlash(filepath.Dir(rel))
		if found[pkg] == "" || reason < found[pkg] {
			found[pkg] = reason
		}
	})
	return found
}

// concurrencyMarker reports why a file makes its package concurrent: a
// `go` statement, or a struct field of type sync.Mutex/RWMutex (named,
// embedded, or pointer). Empty means neither.
func concurrencyMarker(file *ast.File) string {
	reason := ""
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			reason = "a `go` statement"
			return false
		case *ast.StructType:
			for _, f := range n.Fields.List {
				typ := f.Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if sel, ok := typ.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == "sync" &&
						(sel.Sel.Name == "Mutex" || sel.Sel.Name == "RWMutex") {
						reason = "a sync." + sel.Sel.Name + " field"
						return false
					}
				}
			}
		}
		return reason == ""
	})
	return reason
}
