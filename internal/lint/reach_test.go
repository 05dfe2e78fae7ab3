package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// modulePath prefixes every package whose declarations the reachability
// rule is about (the benchmark module and the lint fixtures share it).
const modulePath = "github.com/spyker-fl/spyker"

// support names one declaration that no binary, example or benchmark
// workload reaches but that stays because tests drive a shipped behaviour
// through it. The name is the package directory, a dot, and the
// declaration ("internal/fault.Conn", "internal/live.Server.Kill"); a type
// entry covers its methods. Every entry carries the reason it is not
// simply deleted.
type support struct{ name, reason string }

// testSupport is the whole list. TestReachability fails when an entry is
// reached after all (it no longer needs naming) or is gone, and the list
// may not outgrow maxTestSupport: past that, test-only code belongs in a
// _test.go file.
var testSupport = []support{
	{"internal/fault.Conn", "live fault harness: the e2e tests cut, delay and partition real TCP links through it"},
	{"internal/fault.WrapConn", "constructor of fault.Conn, installed through Server.SetPeerWrapper"},
	{"internal/fault.Proc", "live fault harness: the multi-process e2e tests SIGKILL and -resume real spyker-live processes"},
	{"internal/fault.StartProc", "constructor of fault.Proc"},
	{"internal/live.Server.SetPeerWrapper", "where the e2e tests install fault.Conn on a server's ring links"},
	{"internal/live.Server.Kill", "crash-stop without flush: what the in-process failover tests recover from"},
	{"internal/live.outbox.kill", "Server.Kill's half of the outbox: drop the queue unflushed"},

	// Read accessors: one line each, over state the shipped code maintains
	// anyway, read by tests in another package (or under the server mutex).
	{"internal/live.Server.HoldsToken", "exactly-one-token assertions of the failover, reject and telemetry tests"},
	{"internal/live.Server.TokenRegens", "the failover tests count regenerated tokens per server"},
	{"internal/live.Server.SyncsJoined", "the elastic tests wait for a joiner's first completed round"},
	{"internal/live.Server.Rejects", "the trust-boundary tests count refused frames"},
	{"internal/spyker.ServerCore.UpdatesFrom", "per-client contribution counts in the DES and checkpoint tests"},
	{"internal/simulation.Sim.Pending", "queued-event count: Stop/horizon tests here and in internal/metrics"},
	{"internal/paramvec.Pool.Live", "buffer-leak assertions of the live hand-off tests"},
	{"internal/obs/audit.Recorder.Flags", "the online verdict per client, which the detection tests assert"},
	{"internal/obs/audit.Recorder.Flagged", "the online verdict set, compared with the offline report's"},
	{"internal/obs/audit.Report.FlaggedClients", "the offline verdict set the byzantine study's tests assert"},
	{"internal/obs/audit.Report.FirstFlagTime", "detection latency in the byzantine study's tests"},
	{"internal/baselines.FedAvg.GlobalParams", "the aggregation-math tests compare the global model with a hand computation"},
	{"internal/baselines.FedAvg.Rounds", "round accounting of the FedAvg tests"},
	{"internal/baselines.FedAsync.GlobalParams", "the staleness-weighting tests compare the global model with a hand computation"},
	{"internal/baselines.FedAsync.Version", "one version per aggregated update"},
	{"internal/baselines.FedBuff.GlobalParams", "the buffered model must exist after a run"},
	{"internal/baselines.FedBuff.Flushes", "buffering: at most one flush per two updates"},
	{"internal/baselines.HierFAVG.CloudRounds", "the cloud tier must have aggregated"},
	{"internal/baselines.HierFAVG.EdgeParams", "one edge model per server"},
	{"internal/baselines.SyncSpyker.Syncs", "synchronous exchanges must have happened"},
	{"internal/baselines.SyncSpyker.ServerParams", "server models agree after an exchange"},
}

const maxTestSupport = 30

// TestReachability is the "only what runs" rule (doc.go): every non-test
// declaration of the module — function, method, type, variable, constant —
// is reached from a binary, an example or the benchmark, or is named in
// testSupport with a reason. Roots are every func main (cmd/, examples/,
// and the benchmark module, whose files are one more root package), every
// init and every package-level initialiser. A method is reached when its
// receiver type is and reached code references it or mentions an
// interface the type's method names satisfy. Files a build tag excludes
// on this platform are out of scope: go list does not hand them over.
func TestReachability(t *testing.T) {
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
	if len(testSupport) > maxTestSupport {
		t.Errorf("testSupport has %d entries, the cap is %d", len(testSupport), maxTestSupport)
	}
	for _, s := range testSupport {
		if s.reason == "" {
			t.Errorf("testSupport entry %s has no reason", s.name)
		}
	}
	findings := reachFindings(root, pkgs, bench, testSupport)
	for _, f := range findings {
		t.Error(f)
	}
	if len(findings) > 0 {
		t.Logf("%d findings: delete the declaration, or reach it from a binary; testSupport is for what tests need to drive shipped behaviour", len(findings))
	}
}

// TestReachabilityFixture proves the pass can see: in the fixture one
// function is dead and is found, one method is reached only because
// reached code mentions an interface naming it and is not reported, a
// named entry keeps test support quiet, and the list is checked both ways
// (an entry that is reached, an entry that is gone).
func TestReachabilityFixture(t *testing.T) {
	const fixture = "internal/lint/testdata/src/reach"
	pkgs, err := Load("", "./testdata/src/reach")
	if err != nil {
		t.Fatal(err)
	}
	root, err := filepath.Abs(filepath.Join("testdata", "src", "reach"))
	if err != nil {
		t.Fatal(err)
	}
	got := reachFindings(root, pkgs, nil, []support{{fixture + ".onlyTests", "fixture"}})
	want := []string{
		"reach.go:32 dead: not reached from any binary, example or benchmark workload",
		"reach.go:35 square.perimeter: not reached from any binary, example or benchmark workload",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("fixture findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for _, f := range got {
		if strings.Contains(f, "square.area") {
			t.Errorf("interface-dispatched method reported: %s", f)
		}
	}

	got = reachFindings(root, pkgs, nil, []support{
		{fixture + ".onlyTests", "fixture"},
		{fixture + ".total", "reached from main"},
		{fixture + ".vanished", "names nothing"},
	})
	for _, sub := range []string{
		fixture + ".total is reached: remove it from testSupport",
		fixture + ".vanished is gone: remove it from testSupport",
	} {
		if !strings.Contains(strings.Join(got, "\n"), sub) {
			t.Errorf("findings lack %q:\n%s", sub, strings.Join(got, "\n"))
		}
	}
}

// reachDecl is one checked declaration: the syntax whose references are
// its out-edges and the package whose type information resolves them.
type reachDecl struct {
	key  string
	pos  token.Pos
	node ast.Node
	pkg  *Package
	// named is set for type declarations: its method set is what an
	// interface mention is matched against.
	named *types.TypeName
}

type reachPass struct {
	decls   map[string]*reachDecl
	reached map[string]bool
	work    []*reachDecl
	// ifaces holds the method-name set of every interface reached code
	// has mentioned so far, keyed by the sorted names joined.
	ifaces    map[string][]string
	seenTypes map[types.Type]bool
}

// reflectDispatched are the methods the standard library finds by
// reflection or type assertion on an `any` (fmt, encoding/json), so no
// interface mention in this module's code announces the call.
var reflectDispatched = [][]string{{"String"}, {"Error"}, {"MarshalJSON"}, {"UnmarshalJSON"}}

// reachFindings runs the pass: pkgs are checked, every declaration of
// rootPkgs is a root, named is the test-support list. Positions are
// printed relative to root.
func reachFindings(root string, pkgs, rootPkgs []*Package, named []support) []string {
	p := &reachPass{
		decls:     map[string]*reachDecl{},
		reached:   map[string]bool{},
		ifaces:    map[string][]string{},
		seenTypes: map[types.Type]bool{},
	}
	for _, names := range reflectDispatched {
		p.ifaces[strings.Join(names, ",")] = names
	}
	var roots []*reachDecl
	for _, pkg := range rootPkgs {
		for _, f := range pkg.Files {
			roots = append(roots, &reachDecl{node: f, pkg: pkg})
		}
	}
	for _, pkg := range pkgs {
		roots = append(roots, p.collect(pkg)...)
	}
	for _, d := range roots {
		p.visit(d)
	}
	p.propagate()

	var out []string
	for _, s := range named {
		key := modulePath + "/" + s.name
		switch d := p.decls[key]; {
		case d == nil:
			out = append(out, fmt.Sprintf("testSupport: %s is gone: remove it from testSupport", s.name))
		case p.reached[key]:
			out = append(out, fmt.Sprintf("testSupport: %s is reached: remove it from testSupport", s.name))
		default:
			p.mark(key)
			if d.named != nil {
				for _, m := range methodsOf(d.named) {
					p.mark(objKey(m))
				}
			}
		}
	}
	p.propagate()

	var dead []*reachDecl
	for key, d := range p.decls {
		if !p.reached[key] {
			dead = append(dead, d)
		}
	}
	// One Load, one file set: position order is package, file, line.
	sort.Slice(dead, func(i, j int) bool { return dead[i].pos < dead[j].pos })
	for _, d := range dead {
		pos := d.pkg.Fset.Position(d.pos)
		file := pos.Filename
		if rel, err := filepath.Rel(root, file); err == nil {
			file = filepath.ToSlash(rel)
		}
		name := d.key[strings.LastIndex(d.key, "/")+1:]
		name = name[strings.Index(name, ".")+1:]
		out = append(out, fmt.Sprintf("%s:%d %s: not reached from any binary, example or benchmark workload", file, pos.Line, name))
	}
	return out
}

// collect records pkg's declarations and returns its roots: func main of
// a main package, every init and every package-level initialiser. A blank
// declaration (`var _ I = (*T)(nil)`) is neither a root nor a finding: it
// asserts something about T, it does not use it.
func (p *reachPass) collect(pkg *Package) (roots []*reachDecl) {
	add := func(id *ast.Ident, node ast.Node) *reachDecl {
		d := &reachDecl{key: objKey(pkg.Info.Defs[id]), pos: id.Pos(), node: node, pkg: pkg}
		if d.key != "" {
			p.decls[d.key] = d
		}
		return d
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				isRoot := decl.Recv == nil && (decl.Name.Name == "init" ||
					decl.Name.Name == "main" && pkg.Types.Name() == "main")
				if isRoot {
					roots = append(roots, &reachDecl{node: decl, pkg: pkg})
					continue
				}
				add(decl.Name, decl)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						d := add(spec.Name, spec)
						d.named, _ = pkg.Info.Defs[spec.Name].(*types.TypeName)
					case *ast.ValueSpec:
						blank := true
						for _, name := range spec.Names {
							if name.Name != "_" {
								blank = false
								add(name, spec)
							}
						}
						if decl.Tok == token.VAR && !blank {
							for _, v := range spec.Values {
								roots = append(roots, &reachDecl{node: v, pkg: pkg})
							}
						}
					}
				}
			}
		}
	}
	return roots
}

func (p *reachPass) mark(key string) {
	if d := p.decls[key]; d != nil && !p.reached[key] {
		p.reached[key] = true
		p.work = append(p.work, d)
	}
}

// propagate drains the worklist, then matches every reached type against
// every mentioned interface, until neither adds anything.
func (p *reachPass) propagate() {
	for {
		for len(p.work) > 0 {
			d := p.work[len(p.work)-1]
			p.work = p.work[:len(p.work)-1]
			p.visit(d)
		}
		for key, d := range p.decls {
			if d.named == nil || !p.reached[key] {
				continue
			}
			byName := map[string]*types.Func{}
			for _, m := range methodsOf(d.named) {
				byName[m.Name()] = m
			}
			for _, names := range p.ifaces {
				satisfied := true
				for _, n := range names {
					satisfied = satisfied && byName[n] != nil
				}
				if satisfied {
					for _, n := range names {
						p.mark(objKey(byName[n]))
					}
				}
			}
		}
		if len(p.work) == 0 {
			return
		}
	}
}

// visit follows d's out-edges: every module-level object its syntax uses
// is reached (a method brings its receiver type with it), and every
// interface in the type of any expression or used object is mentioned.
func (p *reachPass) visit(d *reachDecl) {
	info := d.pkg.Info
	ast.Inspect(d.node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				p.mark(objKey(obj))
				if f, ok := obj.(*types.Func); ok {
					p.mark(recvKey(f))
				}
				p.mention(obj.Type())
			}
		}
		if e, ok := n.(ast.Expr); ok {
			if tv, ok := info.Types[e]; ok {
				p.mention(tv.Type)
			}
		}
		return true
	})
}

// mention records the interfaces t is built from.
func (p *reachPass) mention(t types.Type) {
	if t == nil || p.seenTypes[t] {
		return
	}
	p.seenTypes[t] = true
	switch t := t.(type) {
	case *types.Alias:
		p.mention(types.Unalias(t))
	case *types.Named:
		if targs := t.TypeArgs(); targs != nil {
			for i := 0; i < targs.Len(); i++ {
				p.mention(targs.At(i))
			}
		}
		if _, ok := t.Underlying().(*types.Interface); ok {
			p.mention(t.Underlying())
		}
	case *types.Interface:
		names := make([]string, t.NumMethods())
		for i := range names {
			names[i] = t.Method(i).Name()
		}
		if len(names) > 0 {
			sort.Strings(names)
			p.ifaces[strings.Join(names, ",")] = names
		}
	case *types.Pointer:
		p.mention(t.Elem())
	case *types.Slice:
		p.mention(t.Elem())
	case *types.Array:
		p.mention(t.Elem())
	case *types.Chan:
		p.mention(t.Elem())
	case *types.Map:
		p.mention(t.Key())
		p.mention(t.Elem())
	case *types.Signature:
		p.mention(t.Params())
		p.mention(t.Results())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			p.mention(t.At(i).Type())
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			p.mention(t.Field(i).Type())
		}
	}
}

// methodsOf lists the concrete methods in the method set of *T, promoted
// ones included.
func methodsOf(tn *types.TypeName) []*types.Func {
	if _, ok := tn.Type().Underlying().(*types.Interface); ok {
		return nil
	}
	mset := types.NewMethodSet(types.NewPointer(tn.Type()))
	out := make([]*types.Func, 0, mset.Len())
	for i := 0; i < mset.Len(); i++ {
		if f, ok := mset.At(i).Obj().(*types.Func); ok {
			out = append(out, f)
		}
	}
	return out
}

// objKey names a package-level object or a method of the module as
// "importpath.Name" / "importpath.Type.Method"; everything else (locals,
// fields, interface methods, other modules) is "". Objects are keyed by
// name because a package is type-checked from source once and imported
// from export data by everyone else: the same declaration is several
// types.Object values.
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), modulePath) {
		return ""
	}
	if f, ok := obj.(*types.Func); ok {
		f = f.Origin()
		if f.Type().(*types.Signature).Recv() != nil {
			if recv := recvKey(f); recv != "" {
				return recv + "." + f.Name()
			}
			return ""
		}
	}
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		return ""
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// recvKey is the key of a concrete method's receiver type.
func recvKey(f *types.Func) string {
	recv := f.Origin().Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || types.IsInterface(named) {
		return ""
	}
	return objKey(named.Origin().Obj())
}
