// Package lint is spyker-lint: a repository-specific static analyzer
// that turns the invariants this codebase's correctness story rests on —
// invariants the Go compiler cannot see — into compile-time checks. It is
// built on the standard library only (go/parser + go/types, with package
// metadata from `go list -json` and type information for imports from the
// build cache's export data), so it adds no module dependency; the driver
// lives in cmd/spyker-lint and CI runs it before the test steps.
//
// # Analyzers
//
// determinism — the discrete-event emulation must be bit-for-bit
// reproducible, so in the deterministic layers (internal/tensor, nn,
// paramvec, data, fl, simulation, geo, spyker, baselines, metrics)
// four nondeterminism sources are forbidden:
// time.Now/time.Since, the global math/rand convenience functions
// (constructing a seeded *rand.Rand via rand.New/rand.NewSource stays
// legal — every stochastic component takes an explicit seed), math.Exp
// and math.Tanh outside internal/tensor, called or taken as a value (on
// amd64 their bits depend on whether the CPU has FMA and on
// GODEBUG=cpu.fma=off; tensor.Exp and tensor.Tanh give the FMA path's
// bits everywhere), and `range` over a map, whose iteration order is
// randomized by the runtime. A map
// range is waived by a //lint:sorted comment on the statement's line or
// the line above; the waiver asserts the loop is iteration-order
// independent — either the collected keys are sorted before any
// order-sensitive use, or the loop body is a commutative reduction or
// map-to-map copy.
//
// sendcheck — send/encode calls on the live wire may not drop their
// errors silently. A call to an error-returning function or method of
// internal/transport or internal/live whose name starts with Send, Recv,
// Encode, Write, or Broadcast (plus json Encode/Decode calls inside
// the SendPkgs, which also cover the monitoring plane: cmd/spyker-mon
// and cmd/spyker-live) must consume the error; discarding it explicitly
// with `_ =` is the documented idiom for fire-and-forget teardown paths
// and stays legal, while a bare call statement (or go/defer) is flagged.
//
// The two concurrency analyzers below share an intraprocedural CFG +
// dataflow engine (cfg.go): basic blocks over go/ast with branch, loop,
// defer, and panic edges, and an iterative forward fixpoint driver that
// runs both must-analyses (meet = intersection, for "lock held on all
// paths") and may-analyses (meet = union).
//
// lockdiscipline — the mutex protocol. A struct field annotated
// //spyker:guardedby(mu) may only be accessed with the sibling mutex mu
// held (Lock or RLock) on every CFG path to the access; element writes
// (s.m[k] = v), deletes, and taking the field's address all count as
// writes to the field. A function annotated //spyker:locked(mu) is
// analyzed with mu held on entry, and same-package callers are checked
// to hold it at the call site (receiver aliasing through pure views
// like s := (*Server)(o) is resolved). Independent of annotations,
// every function is screened for double acquisition of a held mutex and
// for locks that may still be held at a return — the unlock must
// post-dominate the lock or be deferred — and each file is screened for
// lock-order inversion between mutex pairs. Finally, a completeness
// rule: once a struct has any guarded field, writing an unannotated
// non-mutex sibling while one of the struct's guard locks is held is
// flagged — either the annotation is missing or the write does not
// belong under the lock. This is what keeps the annotation set
// load-bearing instead of decorative.
//
// goroutinelife — goroutines in the runtime packages (RuntimePkgs) must
// not leak. Every `go` statement must be tied to a shutdown mechanism
// the analyzer can see: a sync.WaitGroup Done whose Wait is visible in
// the package, a captured done/stop channel the body receives from or
// ranges over, a bounded (loop-free) body, or an explicit
// //spyker:detached(reason) waiver on the statement (the documented
// escape hatch for process-lifetime servers like the debug HTTP
// endpoints, whose listeners the kernel reclaims at exit).
//
// # Ledger
//
// An analyzer stays while it catches something no test does. For each:
// its non-test lines, what it checks in the tree, and one mutation of
// the tree, tried on a copy, that it reports and that fails no tier-1
// test but the two that run the analyzers (TestRealTreeClean,
// cmd/spyker-lint's TestCleanTreeExitsZero).
//
//	determinism     108 lines; 14 packages, 6 //lint:sorted waivers.
//	                spyker.ServerAggWeight calls math.Exp for tensor.Exp:
//	                the same bits on a CPU with FMA, so every test passes,
//	                and other bits for every sync weight without FMA.
//	sendcheck        88 lines; 23 send, receive and codec calls.
//	                Server.WriteCheckpoint drops its json Encode error: a
//	                model that does not encode leaves a cut checkpoint
//	                under a valid checksum.
//	lockdiscipline  737 lines + cfg.go 513; 41 guarded fields, 18 locked
//	                functions. Server.SyncsTriggered reads s.core and its
//	                counters without s.mu; no test calls it beside a writer.
//	goroutinelife   332 lines; 15 go statements in the runtime packages.
//	                acceptLoop leaves s.wg: Close no longer waits for the
//	                accept loop, which can still start a reader after Close
//	                has returned. Also Server.every without its stop case
//	                and off s.wg: it ticks on after Close, tied to nothing
//	                but the ticker it made.
//
// # Reachability
//
// Only what runs: every non-test declaration of the module — function,
// method, type, package-level variable or constant — must be reached from
// a binary, an example or the benchmark. TestReachability (reach_test.go;
// a test, not an analyzer: it needs the whole module at once and has no
// flag, directive or waiver comment) loads the module with Load, takes as
// roots every func main under cmd/ and examples/, every file of the
// benchmark module, every init and every package-level initialiser, and
// follows references: a function, type, variable or constant is reached
// when reached code names it; a method is reached when its receiver type
// is and reached code either names the method or mentions an interface
// whose method names the type provides (the standard library's
// reflection-dispatched String, Error, MarshalJSON and UnmarshalJSON count
// as always mentioned). A blank declaration (`var _ I = (*T)(nil)`) asserts
// and does not reach. Files a build tag excludes on the host platform are
// out of scope. An unreached declaration is deleted, together with the
// tests that had nothing else to check.
//
// Test support is the one exception: a declaration in a shipping file that
// no root reaches but that tests need in order to drive or observe shipped
// behaviour — the live fault harness (fault.Conn, fault.Proc, Server.Kill),
// and one-line read accessors over state the shipped code maintains anyway
// (Server.HoldsToken, FedAvg.Rounds). Each is named in reach_test.go's
// testSupport list with a one-line reason; a type entry covers its methods;
// the list is capped at 30 entries, and an entry that becomes reached or
// disappears fails the test. Code that exists only so a test can call it —
// a second constructor, an alternative implementation, an adapter — is not
// test support: it belongs in a _test.go file or nowhere.
//
// # Options
//
// Only what is set: a branch behind an option nobody sets is reached, just
// never taken, so reachability cannot see it. TestOptionsAreSet
// (options_test.go; a test for the same reasons) takes every exported
// field of every struct type of the module whose name ends in Config,
// Hyper, Setup or Plan and requires one write — a keyed composite literal
// or an assignment — in a non-test file of cmd/, examples/, internal/ or
// the benchmark module that is not inside a method of that struct type. A
// field only its own withDefaults writes has one value in use and becomes
// that constant; a field nobody writes goes, with the code its other
// values selected. Fields that stay unset by decision are named in
// options_test.go's unsetOptions list with a reason each; the list is
// capped at 4 entries, and an entry that becomes set or disappears fails
// the test.
//
// # Annotation contract
//
// //lint:sorted goes on (or directly above) a `range` statement over a
// map in a deterministic layer and documents why the iteration is safe;
// prefer sorting the keys first and iterating the sorted slice where the
// order reaches protocol, scheduling, or aggregation state.
//
// //spyker:guardedby(mu) goes on a struct field (trailing comment or
// doc comment) and names a sibling sync.Mutex or sync.RWMutex field;
// naming a mutex that does not exist is itself a finding. Constructor
// writes to a value built in the same function (x := &T{}, new(T),
// var x T) are exempt — no other goroutine can hold a reference yet.
//
// //spyker:locked(mu) goes on the doc comment of a function or method
// and declares the named mutex held by the caller on entry. The body is
// checked under that assumption, and same-package call sites are
// checked to actually hold it.
//
// //spyker:detached(reason) goes on (or directly above) a `go`
// statement in a runtime package and waives the shutdown-tie
// requirement; the reason must say why the goroutine may outlive its
// spawner. An empty reason is a finding.
package lint
