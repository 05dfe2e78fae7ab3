package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// randConstructors are the math/rand package-level functions that build
// seeded generators rather than draw from the global source; they are the
// sanctioned way to randomness in the deterministic layers.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

// runDeterminism enforces the reproducibility contract of the emulation
// stack: no wall-clock reads, no global-source randomness, no math.Exp or
// math.Tanh outside internal/tensor, and no map iteration whose order can
// reach protocol or scheduling state without a //lint:sorted waiver.
func runDeterminism(cfg *Config, pkg *Package) []Diagnostic {
	if !hasPkgSuffix(pkg.ImportPath, cfg.DeterministicPkgs) {
		return nil
	}
	var diags []Diagnostic
	for _, file := range pkg.Files {
		waived := waiverLines(pkg, file, "lint:sorted")
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if d, ok := checkDeterministicCall(pkg, n); ok {
					diags = append(diags, d)
				}
			case *ast.SelectorExpr:
				if d, ok := checkMathExp(pkg, n); ok {
					diags = append(diags, d)
				}
			case *ast.RangeStmt:
				t := pkg.Info.TypeOf(n.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				line := pkg.Fset.Position(n.Pos()).Line
				if waived[line] || waived[line-1] {
					return true
				}
				diags = append(diags, pkg.diag("determinism", "map-range", n.Pos(),
					"range over map %s has nondeterministic iteration order; sort the keys or waive with //lint:sorted", types.TypeString(t, nil)))
			}
			return true
		})
	}
	return diags
}

// checkDeterministicCall flags time.Now/time.Since and draws from the
// global math/rand source.
func checkDeterministicCall(pkg *Package, call *ast.CallExpr) (Diagnostic, bool) {
	f := pkg.calleeFunc(call)
	if f == nil {
		return Diagnostic{}, false
	}
	path := pkgPathOf(f)
	switch {
	case path == "time" && (f.Name() == "Now" || f.Name() == "Since"):
		return pkg.diag("determinism", "wall-clock", call.Pos(),
			"call to time.%s in deterministic package %s; thread the simulation clock instead", f.Name(), pkg.ImportPath), true
	case path == "math/rand" || path == "math/rand/v2":
		sig, ok := f.Type().(*types.Signature)
		if !ok || sig.Recv() != nil || randConstructors[f.Name()] {
			return Diagnostic{}, false // *rand.Rand method or seeded constructor: legal
		}
		return pkg.diag("determinism", "global-rand", call.Pos(),
			"call to global rand.%s draws from the unseeded process-wide source; use a seeded *rand.Rand", f.Name()), true
	}
	return Diagnostic{}, false
}

// checkMathExp flags math.Exp and math.Tanh, called or taken as a value,
// outside internal/tensor: on amd64 their bits depend on whether the CPU
// has FMA and on GODEBUG=cpu.fma=off, and tensor.Exp's and tensor.Tanh's
// do not.
func checkMathExp(pkg *Package, sel *ast.SelectorExpr) (Diagnostic, bool) {
	f, _ := pkg.Info.Uses[sel.Sel].(*types.Func)
	if pkgPathOf(f) != "math" || (f.Name() != "Exp" && f.Name() != "Tanh") || hasPkgSuffix(pkg.ImportPath, []string{"internal/tensor"}) {
		return Diagnostic{}, false
	}
	return pkg.diag("determinism", "math-exp", sel.Pos(),
		"math.%s rounds differently without FMA or under GODEBUG=cpu.fma=off; use tensor.%s", f.Name(), f.Name()), true
}

// waiverLines collects the source lines carrying a //<directive> comment
// in file. A statement is waived when its own line or the line above
// carries the directive.
func waiverLines(pkg *Package, file *ast.File, directive string) map[int]bool {
	lines := make(map[int]bool)
	for _, group := range file.Comments {
		for _, c := range group.List {
			if strings.HasPrefix(c.Text, "//"+directive) {
				lines[pkg.Fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}
