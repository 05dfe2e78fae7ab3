package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding: an invariant violation at a source position.
// Rule is the stable machine-readable identifier of the specific check
// that fired, namespaced by analyzer (e.g. "lockdiscipline/unguarded-read");
// Message wording may evolve, Rule values do not.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	Rule     string `json:"rule"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String renders the finding in the standard file:line:col compiler
// format, so editors and CI annotate it like a build error.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one static check over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(cfg *Config, pkg *Package) []Diagnostic
}

// Config parameterizes a lint run. The zero value is not useful; start
// from DefaultConfig.
type Config struct {
	// DeterministicPkgs are import-path suffixes of the packages the
	// determinism analyzer applies to.
	DeterministicPkgs []string
	// SendPkgs are import-path suffixes whose error-returning send/encode
	// calls must be consumed.
	SendPkgs []string
	// RuntimePkgs are import-path suffixes of the concurrent runtime
	// packages whose goroutines must be tied to a shutdown mechanism.
	RuntimePkgs []string
	// RelDir, when non-empty, makes diagnostic file paths relative to it.
	RelDir string
}

// DefaultConfig is the repository policy: the deterministic layers of the
// emulation stack, the wire packages whose send errors are load-bearing,
// and the runtime packages whose goroutines must end.
// The lint fixture packages under internal/lint/testdata are included so
// the shipped binary flags them exactly like the layers they imitate —
// which is also what keeps the golden tests honest about CLI behaviour.
func DefaultConfig() *Config {
	return &Config{
		DeterministicPkgs: []string{
			"internal/tensor", "internal/nn", "internal/paramvec",
			"internal/data", "internal/fl", "internal/simulation",
			"internal/geo", "internal/spyker", "internal/baselines",
			"internal/metrics", "internal/fault", "internal/ring",
			"internal/obs/health",
			"internal/experiments",
			"internal/lint/testdata/src/determinism",
		},
		SendPkgs: []string{
			"internal/transport", "internal/live",
			"cmd/spyker-mon", "cmd/spyker-live",
		},
		RuntimePkgs: []string{
			"internal/live", "internal/transport", "internal/spyker",
			"internal/paramvec", "internal/obs",
			"internal/obs/health", "internal/fault", "internal/geo",
			"internal/ring", "cmd/spyker-mon", "cmd/spyker-live",
			"internal/lint/testdata/src/goroutinelife",
		},
	}
}

// Analyzers returns the registered analyzers in their canonical order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		{
			Name: "determinism",
			Doc:  "forbid time.Now, global math/rand, math.Exp/Tanh outside tensor, and unwaived map ranges in deterministic layers",
			Run:  runDeterminism,
		},
		{
			Name: "sendcheck",
			Doc:  "transport/live/monitoring send and encode errors must be consumed or explicitly discarded",
			Run:  runSendCheck,
		},
		{
			Name: "lockdiscipline",
			Doc:  "//spyker:guardedby fields accessed only under their mutex; no double-lock, leaked lock, or order inversion",
			Run:  runLockDiscipline,
		},
		{
			Name: "goroutinelife",
			Doc:  "goroutines in the runtime packages must be tied to a shutdown mechanism or carry //spyker:detached",
			Run:  runGoroutineLife,
		},
	}
}

// Run loads the packages matching patterns and applies the selected
// analyzers (nil or empty = all). Findings come back sorted by position.
func Run(cfg *Config, dir string, only []string, patterns ...string) ([]Diagnostic, error) {
	selected, err := selectAnalyzers(only)
	if err != nil {
		return nil, err
	}
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range selected {
			diags = append(diags, a.Run(cfg, pkg)...)
		}
	}
	if cfg.RelDir != "" {
		for i := range diags {
			if rel, err := filepath.Rel(cfg.RelDir, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
				diags[i].File = rel
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// selectAnalyzers resolves -only names against the registry.
func selectAnalyzers(only []string) ([]*Analyzer, error) {
	all := Analyzers()
	if len(only) == 0 {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var selected []*Analyzer
	for _, name := range only {
		a, ok := byName[name]
		if !ok {
			names := make([]string, 0, len(all))
			for _, a := range all {
				names = append(names, a.Name)
			}
			return nil, fmt.Errorf("lint: unknown analyzer %q (have %s)", name, strings.Join(names, ", "))
		}
		selected = append(selected, a)
	}
	return selected, nil
}

// hasPkgSuffix reports whether importPath ends in one of the configured
// path suffixes, matching at a path-segment boundary.
func hasPkgSuffix(importPath string, suffixes []string) bool {
	for _, s := range suffixes {
		if importPath == s || strings.HasSuffix(importPath, "/"+s) {
			return true
		}
	}
	return false
}

// diag builds a Diagnostic at pos. rule is the analyzer-local stable
// identifier of the check; the reported Rule is "analyzer/rule".
func (p *Package) diag(analyzer, rule string, pos token.Pos, format string, args ...any) Diagnostic {
	position := p.Fset.Position(pos)
	return Diagnostic{
		Analyzer: analyzer,
		Rule:     analyzer + "/" + rule,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	}
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (nil for builtins, conversions, and calls through function values).
func (p *Package) calleeFunc(call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = p.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = p.Info.Uses[fun.Sel]
	default:
		return nil
	}
	f, _ := obj.(*types.Func)
	return f
}

// pkgPathOf returns the defining package path of a function, "" for
// universe-scope objects.
func pkgPathOf(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}
