package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unsetOptions names the option fields that no binary, example, study or
// benchmark workload sets and that stay anyway, each with the reason it is
// not a constant. TestOptionsAreSet fails when an entry is set after all
// or is gone, and the list may not outgrow maxUnsetOptions.
var unsetOptions = []support{
	{"internal/fault.Plan.CheckpointEvery", "DES fault harness: the stale-restore tests restart a crashed server from a periodic checkpoint through it"},
}

const maxUnsetOptions = 4

// TestOptionsAreSet is the "only what is set" rule (doc.go): every exported
// field of every struct type of the module whose name ends in Config,
// Hyper, Setup or Plan is written — by a keyed composite literal or an
// assignment — in a non-test file of cmd/, examples/, internal/ or the
// benchmark module, outside the methods of its own type. A field only its
// own withDefaults writes has one value in use, and a field nobody writes
// has none: either is a constant, not an option. (A default that sits in a
// plain function, as spyker.Config.MinAgeGapForAgeBroadcast's did in
// newServerCore before it became the constant 1, counts as a write: the
// scan sees where a field is written, not whether two values ever are.)
func TestOptionsAreSet(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	root := findModuleRoot(t)
	pkgs, err := Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	bench, err := Load(filepath.Join(root, "benchmark"), ".")
	if err != nil {
		t.Fatal(err)
	}
	if len(unsetOptions) > maxUnsetOptions {
		t.Errorf("unsetOptions has %d entries, the cap is %d", len(unsetOptions), maxUnsetOptions)
	}
	for _, s := range unsetOptions {
		if s.reason == "" {
			t.Errorf("unsetOptions entry %s has no reason", s.name)
		}
	}
	for _, f := range optionFindings(pkgs, bench, unsetOptions) {
		t.Error(f)
	}
}

// TestOptionsFixture proves the scan can see: of the fixture's config
// struct the field main sets passes, the field only withDefaults writes
// and the field nobody writes are found, the unexported field is not an
// option, and the exception list is checked both ways.
func TestOptionsFixture(t *testing.T) {
	const fixture = "internal/lint/testdata/src/options"
	pkgs, err := Load("", "./testdata/src/options")
	if err != nil {
		t.Fatal(err)
	}
	got := optionFindings(pkgs, nil, nil)
	want := []string{
		fixture + ".poolConfig.Backoff: no caller sets it (written only by poolConfig's own methods): make it a constant",
		fixture + ".poolConfig.Burst: no caller sets it: make it a constant",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("fixture findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	got = optionFindings(pkgs, nil, []support{
		{fixture + ".poolConfig.Burst", "fixture"},
		{fixture + ".poolConfig.Size", "set by main"},
		{fixture + ".poolConfig.Gone", "names nothing"},
	})
	want = []string{
		"unsetOptions: " + fixture + ".poolConfig.Size is set: remove it from unsetOptions",
		"unsetOptions: " + fixture + ".poolConfig.Gone is gone: remove it from unsetOptions",
		fixture + ".poolConfig.Backoff: no caller sets it (written only by poolConfig's own methods): make it a constant",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("fixture findings with exceptions:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// optionFindings lists the option fields declared in pkgs that nothing in
// pkgs or extra sets, except the named ones. A field is "dir.Type.Field".
func optionFindings(pkgs, extra []*Package, named []support) []string {
	// options maps every option field to where it is written: 0 nowhere,
	// 1 only inside methods of its own type, 2 by a caller.
	options := map[string]int{}
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !isOptionsType(name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					options[fieldKey(tn, f)] = 0
				}
			}
		}
	}
	note := func(key string, owner *types.TypeName, in *ast.FuncDecl, pkg *Package) {
		if _, ok := options[key]; !ok {
			return
		}
		level := 2
		if in != nil && in.Recv != nil {
			if f, ok := pkg.Info.Defs[in.Name].(*types.Func); ok && recvKey(f) == objKey(owner) {
				level = 1
			}
		}
		options[key] = max(options[key], level)
	}
	for _, pkg := range append(append([]*Package(nil), pkgs...), extra...) {
		for _, decl := range allDecls(pkg) {
			fn, _ := decl.(*ast.FuncDecl)
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					owner := namedStruct(pkg.Info.Types[n].Type)
					if owner == nil {
						break
					}
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								note(objKey(owner)+"."+id.Name, owner, fn, pkg)
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if owner, field := writtenField(pkg.Info, lhs); owner != nil {
							note(fieldKey(owner, field), owner, fn, pkg)
						}
					}
				case *ast.IncDecStmt:
					if owner, field := writtenField(pkg.Info, n.X); owner != nil {
						note(fieldKey(owner, field), owner, fn, pkg)
					}
				}
				return true
			})
		}
	}

	var out []string
	excepted := map[string]bool{}
	for _, s := range named {
		key := modulePath + "/" + s.name
		switch level, ok := options[key]; {
		case !ok:
			out = append(out, fmt.Sprintf("unsetOptions: %s is gone: remove it from unsetOptions", s.name))
		case level == 2:
			out = append(out, fmt.Sprintf("unsetOptions: %s is set: remove it from unsetOptions", s.name))
		}
		excepted[key] = true
	}
	var keys []string
	for key, level := range options {
		if level < 2 && !excepted[key] {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		name := strings.TrimPrefix(key, modulePath+"/")
		only := ""
		if options[key] == 1 {
			typ := name[strings.LastIndex(name, "/")+1:]
			only = fmt.Sprintf(" (written only by %s's own methods)", strings.Split(typ, ".")[1])
		}
		out = append(out, fmt.Sprintf("%s: no caller sets it%s: make it a constant", name, only))
	}
	return out
}

func allDecls(pkg *Package) []ast.Decl {
	var out []ast.Decl
	for _, f := range pkg.Files {
		out = append(out, f.Decls...)
	}
	return out
}

// isOptionsType reports whether a type name marks a bag of options.
func isOptionsType(name string) bool {
	for _, suffix := range []string{"Config", "Hyper", "Setup", "Plan"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}

func fieldKey(owner *types.TypeName, field *types.Var) string {
	return objKey(owner) + "." + field.Name()
}

// namedStruct is the declared struct type behind t (T, *T), nil if none.
func namedStruct(t types.Type) *types.TypeName {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named.Origin().Obj()
}

// writtenField resolves an assignment target x.F to the field F and the
// struct type that declares it (the embedded one, for a promoted field).
func writtenField(info *types.Info, lhs ast.Expr) (*types.TypeName, *types.Var) {
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	selection := info.Selections[sel]
	if selection == nil || selection.Kind() != types.FieldVal {
		return nil, nil
	}
	t := selection.Recv()
	var owner *types.TypeName
	var field *types.Var
	for _, i := range selection.Index() {
		owner = namedStruct(t)
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return nil, nil
		}
		field = st.Field(i)
		t = field.Type()
	}
	return owner, field
}
