package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed, and type-checked package: the unit the
// analyzers operate on.
type Package struct {
	ImportPath string
	Dir        string
	GoFiles    []string // absolute paths, non-test files only
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	ImportMap  map[string]string
	Module     *struct{ Path string }
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// Load lists the packages matching patterns (relative to dir, "" for the
// current directory), parses their non-test Go files, and type-checks
// them against the export data of their dependencies. It is the
// stdlib-only equivalent of an x/tools packages.Load: `go list -export
// -deps -json` supplies the file sets and builds the export data, and the
// gc importer consumes that data through a lookup function.
//
// Only the packages named by the patterns are returned; dependencies are
// imported from export data, never re-analyzed. Test files are not
// loaded: the invariants the analyzers enforce are shipping-code
// properties.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-export", "-deps", "-json", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}

	exports := make(map[string]string)
	var targets []listPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: go list: %s", p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(f)
	})

	pkgs := make([]*Package, 0, len(targets))
	for _, t := range targets {
		pkg, err := typecheck(fset, imp, t)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// typecheck parses and type-checks one listed package.
func typecheck(fset *token.FileSet, imp types.Importer, t listPackage) (*Package, error) {
	files := make([]*ast.File, 0, len(t.GoFiles))
	paths := make([]string, 0, len(t.GoFiles))
	for _, name := range t.GoFiles {
		path := filepath.Join(t.Dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
		paths = append(paths, path)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: resolver{imp: imp, importMap: t.ImportMap}}
	tpkg, err := conf.Check(t.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", t.ImportPath, err)
	}
	return &Package{
		ImportPath: t.ImportPath,
		Dir:        t.Dir,
		GoFiles:    paths,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// resolver applies go list's ImportMap (vendoring or module rewrites, if
// any) before delegating to the export-data importer.
type resolver struct {
	imp       types.Importer
	importMap map[string]string
}

func (r resolver) Import(path string) (*types.Package, error) {
	if mapped, ok := r.importMap[path]; ok {
		path = mapped
	}
	return r.imp.Import(path)
}
