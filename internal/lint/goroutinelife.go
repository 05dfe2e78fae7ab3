package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// goroutinelife enforces that every goroutine launched in the runtime
// packages (Config.RuntimePkgs) is tied to a shutdown mechanism, so
// the live server's rewiring, reconnect, and drain goroutines cannot
// leak across reconfigurations. A `go` statement is tied when one of
// these holds:
//
//   - its body calls Done on a sync.WaitGroup that some function in
//     the package visibly Waits on;
//   - its body receives from (or ranges over, or selects on) a channel
//     it did not create itself — a captured done/stop channel, a
//     message channel closed by the owner, a ctx.Done(); a ticker or
//     timer the body starts is its own, so its channel is no tie;
//   - the body contains no loop at all: it runs a bounded sequence of
//     statements and exits by construction;
//   - the statement carries a //spyker:detached(reason) waiver on its
//     line or the line above, with a non-empty reason.
//
// A `go f(...)` call to a named function declared in the same package
// is judged by that function's body under the same rules.
var detachedRe = regexp.MustCompile(`^//spyker:detached\(([^)]*)\)`)

func runGoroutineLife(cfg *Config, pkg *Package) []Diagnostic {
	if !hasPkgSuffix(pkg.ImportPath, cfg.RuntimePkgs) {
		return nil
	}
	gl := &lifeChecker{pkg: pkg, funcs: map[*types.Func]*ast.FuncDecl{}}
	gl.collectFuncs()
	waitedOn := gl.collectWaits()

	for _, file := range pkg.Files {
		waivers := detachedWaivers(pkg, file)
		ast.Inspect(file, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			line := pkg.Fset.Position(gs.Pos()).Line
			if reason, waived := waivers[line]; waived {
				if strings.TrimSpace(reason) == "" {
					gl.diags = append(gl.diags, pkg.diag("goroutinelife", "bad-waiver", gs.Pos(),
						"//spyker:detached waiver needs a non-empty reason"))
				}
				return true
			}
			if reason, waived := waivers[line-1]; waived {
				if strings.TrimSpace(reason) == "" {
					gl.diags = append(gl.diags, pkg.diag("goroutinelife", "bad-waiver", gs.Pos(),
						"//spyker:detached waiver needs a non-empty reason"))
				}
				return true
			}
			gl.checkGoStmt(gs, waitedOn)
			return true
		})
	}
	return gl.diags
}

type lifeChecker struct {
	pkg   *Package
	funcs map[*types.Func]*ast.FuncDecl // same-package function bodies
	diags []Diagnostic
}

func (gl *lifeChecker) collectFuncs() {
	for _, file := range gl.pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if f, ok := gl.pkg.Info.Defs[fd.Name].(*types.Func); ok {
				gl.funcs[f] = fd
			}
		}
	}
}

// collectWaits records the base names of every WaitGroup the package
// visibly calls Wait on ("wg", "s.wg" -> "wg"), so a Done-tied
// goroutine can be checked for a matching join point.
func (gl *lifeChecker) collectWaits() map[string]bool {
	waited := map[string]bool{}
	for _, file := range gl.pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, isWG := gl.waitGroupMethod(call, "Wait"); isWG {
				waited[name] = true
			}
			return true
		})
	}
	return waited
}

// waitGroupMethod resolves a call to a sync.WaitGroup method and
// returns the group's base name (final path segment of the receiver).
func (gl *lifeChecker) waitGroupMethod(call *ast.CallExpr, method string) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return "", false
	}
	if !isWaitGroupType(gl.pkg.Info.TypeOf(sel.X)) {
		return "", false
	}
	key := exprKey(sel.X)
	if key == "" {
		return "", false
	}
	return lockBase(key), true
}

func (gl *lifeChecker) checkGoStmt(gs *ast.GoStmt, waitedOn map[string]bool) {
	body := gl.goBody(gs)
	if body == nil {
		gl.diags = append(gl.diags, gl.pkg.diag("goroutinelife", "untied", gs.Pos(),
			"goroutine runs a function defined outside this package; tie it to a done channel or WaitGroup, or waive with //spyker:detached(reason)"))
		return
	}
	if wg, ok := gl.doneWaitGroup(body); ok {
		if !waitedOn[wg] {
			gl.diags = append(gl.diags, gl.pkg.diag("goroutinelife", "no-wait", gs.Pos(),
				"goroutine signals WaitGroup %s but no Wait on %s is visible in this package", wg, wg))
		}
		return
	}
	if receivesCapturedChannel(gl.pkg, body) {
		return
	}
	if name, serves := callsUnboundedServe(body); serves {
		gl.diags = append(gl.diags, gl.pkg.diag("goroutinelife", "untied", gs.Pos(),
			"goroutine blocks in %s with no shutdown tie; it outlives every rewiring — tie it or waive with //spyker:detached(reason)", name))
		return
	}
	if !containsLoop(body) {
		return // bounded body: terminates by construction
	}
	gl.diags = append(gl.diags, gl.pkg.diag("goroutinelife", "untied", gs.Pos(),
		"goroutine loops with no shutdown tie (no captured done channel, no WaitGroup); it can leak across rewiring — tie it or waive with //spyker:detached(reason)"))
}

// callsUnboundedServe reports whether the body calls an accept/serve
// entry point (ListenAndServe, Serve) that blocks for the life of the
// process: such a body terminates only by construction of the process,
// not of the goroutine.
func callsUnboundedServe(body *ast.BlockStmt) (string, bool) {
	var name string
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := ""
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			callee = fun.Name
		case *ast.SelectorExpr:
			callee = fun.Sel.Name
		}
		if callee == "Serve" || strings.HasPrefix(callee, "ListenAndServe") {
			name = callee
			return false
		}
		return true
	})
	return name, name != ""
}

// goBody resolves the body a go statement runs: the function literal
// itself, or the declaration of a same-package named function/method.
func (gl *lifeChecker) goBody(gs *ast.GoStmt) *ast.BlockStmt {
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		return lit.Body
	}
	f := gl.pkg.calleeFunc(gs.Call)
	if f == nil {
		return nil
	}
	if fd, ok := gl.funcs[f]; ok {
		return fd.Body
	}
	return nil
}

// doneWaitGroup reports whether the goroutine body calls Done (usually
// deferred) on a sync.WaitGroup, returning the group's base name.
func (gl *lifeChecker) doneWaitGroup(body *ast.BlockStmt) (string, bool) {
	var name string
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if wg, isWG := gl.waitGroupMethod(call, "Done"); isWG {
			name = wg
			return false
		}
		return true
	})
	return name, name != ""
}

// timeChanFuncs are the time functions whose channel — returned, or the
// C of the returned Ticker or Timer — belongs to the caller alone.
var timeChanFuncs = map[string]bool{"NewTicker": true, "NewTimer": true, "After": true, "Tick": true}

// makesOwnChannel reports whether e is a call that gives the caller a
// channel nobody else holds: make, or one of timeChanFuncs.
func makesOwnChannel(pkg *Package, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		_, builtin := pkg.Info.Uses[id].(*types.Builtin)
		return builtin && id.Name == "make"
	}
	f := pkg.calleeFunc(call)
	return pkgPathOf(f) == "time" && timeChanFuncs[f.Name()]
}

// receivesCapturedChannel reports whether the body receives from or
// ranges over a channel it did not itself create: a receive on a
// captured channel is a shutdown signal path (close(done) unblocks or
// terminates it).
func receivesCapturedChannel(pkg *Package, body *ast.BlockStmt) bool {
	// Channels the body makes locally — its own tickers and timers
	// included — cannot be a tie from the outside.
	local := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if !makesOwnChannel(pkg, rhs) {
				continue
			}
			if lid, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := pkg.Info.Defs[lid]; obj != nil {
					local[obj] = true
				}
			}
		}
		return true
	})
	isCaptured := func(ch ast.Expr) bool {
		t := pkg.Info.TypeOf(ch)
		if t == nil {
			return false
		}
		if _, isChan := t.Underlying().(*types.Chan); !isChan || makesOwnChannel(pkg, ch) {
			return false
		}
		if id := leftIdent(ch); id != nil && local[pkg.Info.Uses[id]] {
			return false
		}
		return true
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && isCaptured(n.X) {
				found = true
			}
		case *ast.RangeStmt:
			if isCaptured(n.X) {
				found = true
			}
		}
		return !found
	})
	return found
}

// containsLoop reports whether the body has any for/range statement.
func containsLoop(body *ast.BlockStmt) bool {
	loop := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loop = true
		}
		return !loop
	})
	return loop
}

// isWaitGroupType reports whether t is sync.WaitGroup, possibly behind
// a pointer.
func isWaitGroupType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

// detachedWaivers maps source lines to the reason of a
// //spyker:detached(reason) comment on them.
func detachedWaivers(pkg *Package, file *ast.File) map[int]string {
	waivers := map[int]string{}
	for _, group := range file.Comments {
		for _, c := range group.List {
			if m := detachedRe.FindStringSubmatch(c.Text); m != nil {
				waivers[pkg.Fset.Position(c.Pos()).Line] = m[1]
			}
		}
	}
	return waivers
}
