package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// sendPrefixes are the operation families on the wire packages whose
// error results carry delivery outcomes.
var sendPrefixes = []string{"Send", "Recv", "Encode", "Write", "Broadcast"}

// runSendCheck flags transport/live send and encode calls whose error
// result is silently dropped: used as a bare statement, or launched via
// go/defer. Explicitly discarding with `_ = conn.Close()` style blank
// assignment stays legal — that is the documented idiom for teardown
// paths where the peer vanishing is an orderly outcome.
func runSendCheck(cfg *Config, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	flag := func(call *ast.CallExpr, how string) {
		f := pkg.calleeFunc(call)
		if f == nil || !returnsError(f) {
			return
		}
		path := pkgPathOf(f)
		watched := hasPkgSuffix(path, cfg.SendPkgs) && hasSendPrefix(f.Name())
		// Inside the wire packages themselves, the raw json codec calls
		// are the send path; dropping their errors hides a dead
		// connection.
		if !watched && hasPkgSuffix(pkg.ImportPath, cfg.SendPkgs) {
			watched = path == "encoding/json" &&
				(strings.HasPrefix(f.Name(), "Encode") || strings.HasPrefix(f.Name(), "Decode"))
		}
		if !watched {
			return
		}
		diags = append(diags, pkg.diag("sendcheck", "dropped-error", call.Pos(),
			"%s error of %s.%s is dropped %s; handle it or discard explicitly with _ =",
			f.Name(), pkgBase(path), f.Name(), how))
	}

	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					flag(call, "by a bare call statement")
				}
			case *ast.GoStmt:
				flag(n.Call, "by go")
			case *ast.DeferStmt:
				flag(n.Call, "by defer")
			}
			return true
		})
	}
	return diags
}

// returnsError reports whether f's last result is the error type.
func returnsError(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	return types.Identical(last, types.Universe.Lookup("error").Type())
}

// hasSendPrefix reports whether a function name belongs to the watched
// send/encode operation families. The match ignores export case so the
// monitoring commands' unexported writeX/sendX helpers are covered.
func hasSendPrefix(name string) bool {
	for _, p := range sendPrefixes {
		if len(name) >= len(p) && strings.EqualFold(name[:len(p)], p) {
			return true
		}
	}
	return false
}

// pkgBase renders the last path segment for messages.
func pkgBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
