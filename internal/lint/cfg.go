package lint

import (
	"go/ast"
	"go/token"
)

// cfg.go is the intraprocedural control-flow engine the concurrency
// analyzers (lockdiscipline, goroutinelife) are built on: a
// basic-block CFG over go/ast with branch, loop, defer, and panic
// edges, plus a small iterative forward dataflow driver. It stays
// deliberately syntactic — one CFG per function body, no
// interprocedural edges — because every discipline the analyzers
// enforce is phrased per-function, with annotations carrying facts
// across call boundaries.

// cfgBlock is one basic block: a maximal straight-line run of
// statements and conditions with one entry point. Compound statements
// are decomposed — an if contributes its init and condition to the
// current block and fresh blocks for the arms — while simple
// statements (assignments, calls, sends, go, defer) are appended
// whole; dataflow transfer functions inspect inside them.
type cfgBlock struct {
	index int
	nodes []ast.Node
	succs []*cfgBlock
}

// funcCFG is the control-flow graph of one function body. exit is
// virtual: every return, panic, and fall-off-the-end edge lands there,
// and the recorded deferred calls run on each of those paths.
type funcCFG struct {
	entry    *cfgBlock
	exit     *cfgBlock
	blocks   []*cfgBlock
	deferred []*ast.CallExpr
}

// buildCFG constructs the CFG of a function body.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	b := &cfgBuilder{g: &funcCFG{}, labels: map[string]*labelTarget{}}
	b.g.exit = b.newBlock() // index 0, repositioned below
	b.cur = b.newBlock()
	b.g.entry = b.cur
	b.stmtList(body.List)
	b.terminate(b.g.exit) // fall off the end
	for _, pg := range b.gotos {
		if t, ok := b.labels[pg.label]; ok && t.block != nil {
			pg.from.succs = append(pg.from.succs, t.block)
		}
	}
	return b.g
}

// labelTarget is the resolution of one label: the block the labeled
// statement starts in (for goto) and, when the label names a loop or
// switch, its break and continue destinations.
type labelTarget struct {
	block         *cfgBlock
	brk, cont     *cfgBlock
	expectingLoop bool // the next loop/switch built adopts brk/cont
}

type pendingGoto struct {
	from  *cfgBlock
	label string
}

type cfgBuilder struct {
	g   *funcCFG
	cur *cfgBlock // nil while the current path is terminated

	breaks    []*cfgBlock
	continues []*cfgBlock
	fallto    []*cfgBlock // fallthrough target stack, one per case body
	labels    map[string]*labelTarget
	curLabel  *labelTarget // label awaiting the loop it names
	gotos     []pendingGoto
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{index: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

// startBlock opens a fresh block reachable from the current one.
func (b *cfgBuilder) startBlock() *cfgBlock {
	blk := b.newBlock()
	if b.cur != nil {
		b.cur.succs = append(b.cur.succs, blk)
	}
	b.cur = blk
	return blk
}

// add appends a node to the current block, reviving an unreachable
// block for dead code so its nodes still exist in the graph.
func (b *cfgBuilder) add(n ast.Node) {
	if n == nil {
		return
	}
	if b.cur == nil {
		b.cur = b.newBlock() // unreachable: no predecessors
	}
	b.cur.nodes = append(b.cur.nodes, n)
}

// terminate ends the current path with an edge to dst.
func (b *cfgBuilder) terminate(dst *cfgBlock) {
	if b.cur != nil {
		b.cur.succs = append(b.cur.succs, dst)
		b.cur = nil
	}
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		t := &labelTarget{expectingLoop: true}
		b.labels[s.Label.Name] = t
		t.block = b.startBlock()
		b.curLabel = t
		b.stmt(s.Stmt)
		b.curLabel = nil

	case *ast.IfStmt:
		b.add(s.Init)
		b.add(s.Cond)
		cond := b.cur
		if cond == nil {
			cond = b.startBlock()
		}
		b.cur = cond
		thenBlk := b.newBlock()
		cond.succs = append(cond.succs, thenBlk)
		b.cur = thenBlk
		b.stmt(s.Body)
		thenEnd := b.cur
		var elseEnd *cfgBlock
		hasElse := s.Else != nil
		if hasElse {
			elseBlk := b.newBlock()
			cond.succs = append(cond.succs, elseBlk)
			b.cur = elseBlk
			b.stmt(s.Else)
			elseEnd = b.cur
		}
		join := b.newBlock()
		if !hasElse {
			cond.succs = append(cond.succs, join)
		}
		if thenEnd != nil {
			thenEnd.succs = append(thenEnd.succs, join)
		}
		if elseEnd != nil {
			elseEnd.succs = append(elseEnd.succs, join)
		}
		b.cur = join

	case *ast.ForStmt:
		b.add(s.Init)
		head := b.startBlock()
		b.add(s.Cond)
		exit := b.newBlock()
		if s.Cond != nil {
			head.succs = append(head.succs, exit)
		}
		// continue lands on the post statement when there is one.
		cont := head
		var post *cfgBlock
		if s.Post != nil {
			post = b.newBlock()
			cont = post
		}
		b.adoptLabel(exit, cont)
		body := b.newBlock()
		head.succs = append(head.succs, body)
		b.cur = body
		b.pushLoop(exit, cont)
		b.stmt(s.Body)
		b.popLoop()
		if s.Post != nil {
			b.terminate(post)
			b.cur = post
			b.add(s.Post)
			b.terminate(head)
		} else {
			b.terminate(head)
		}
		b.cur = exit

	case *ast.RangeStmt:
		head := b.startBlock()
		head.nodes = append(head.nodes, s.X)
		exit := b.newBlock()
		head.succs = append(head.succs, exit)
		b.adoptLabel(exit, head)
		body := b.newBlock()
		head.succs = append(head.succs, body)
		b.cur = body
		if s.Key != nil {
			b.add(s.Key)
		}
		if s.Value != nil {
			b.add(s.Value)
		}
		b.pushLoop(exit, head)
		b.stmt(s.Body)
		b.popLoop()
		b.terminate(head)
		b.cur = exit

	case *ast.SwitchStmt:
		b.add(s.Init)
		b.add(s.Tag)
		b.caseClauses(s.Body, false)

	case *ast.TypeSwitchStmt:
		b.add(s.Init)
		b.add(s.Assign)
		b.caseClauses(s.Body, false)

	case *ast.SelectStmt:
		b.selectClauses(s.Body)

	case *ast.ReturnStmt:
		b.add(s)
		b.terminate(b.g.exit)

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			b.terminate(b.branchTarget(s.Label, true))
		case token.CONTINUE:
			b.terminate(b.branchTarget(s.Label, false))
		case token.GOTO:
			if b.cur != nil {
				b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: s.Label.Name})
				b.cur = nil
			}
		case token.FALLTHROUGH:
			if n := len(b.fallto); n > 0 && b.fallto[n-1] != nil {
				b.terminate(b.fallto[n-1])
			}
		}

	case *ast.DeferStmt:
		b.add(s)
		b.g.deferred = append(b.g.deferred, s.Call)

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				b.terminate(b.g.exit)
			}
		}

	default:
		// Assign, IncDec, Go, Send, Decl, Empty: straight-line nodes.
		b.add(s)
	}
}

// caseClauses builds the blocks of a switch body: every case is a
// successor of the head block, fallthrough chains to the next case, and
// a missing default adds the head→join edge.
func (b *cfgBuilder) caseClauses(body *ast.BlockStmt, _ bool) {
	head := b.cur
	if head == nil {
		head = b.startBlock()
	}
	join := b.newBlock()
	b.adoptLabel(join, nil)

	var clauses []*ast.CaseClause
	for _, s := range body.List {
		if cc, ok := s.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	caseBlocks := make([]*cfgBlock, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		caseBlocks[i] = b.newBlock()
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		head.succs = append(head.succs, join)
	}
	for i, cc := range clauses {
		head.succs = append(head.succs, caseBlocks[i])
		b.cur = caseBlocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		next := (*cfgBlock)(nil)
		if i+1 < len(clauses) {
			next = caseBlocks[i+1]
		}
		b.fallto = append(b.fallto, next)
		b.pushBreak(join)
		b.stmtList(cc.Body)
		b.popBreak()
		b.fallto = b.fallto[:len(b.fallto)-1]
		b.terminate(join)
	}
	b.cur = join
}

// selectClauses builds a select: each communication clause is a
// successor of the head; with no default the select blocks until one
// fires, so there is no head→join edge.
func (b *cfgBuilder) selectClauses(body *ast.BlockStmt) {
	head := b.cur
	if head == nil {
		head = b.startBlock()
	}
	join := b.newBlock()
	b.adoptLabel(join, nil)
	any := false
	for _, s := range body.List {
		cc, ok := s.(*ast.CommClause)
		if !ok {
			continue
		}
		any = true
		blk := b.newBlock()
		head.succs = append(head.succs, blk)
		b.cur = blk
		b.add(cc.Comm)
		b.pushBreak(join)
		b.stmtList(cc.Body)
		b.popBreak()
		b.terminate(join)
	}
	if !any {
		// `select {}` blocks forever: the path ends here.
		head.succs = append(head.succs, b.g.exit)
	}
	b.cur = join
}

func (b *cfgBuilder) pushLoop(brk, cont *cfgBlock) {
	b.breaks = append(b.breaks, brk)
	b.continues = append(b.continues, cont)
}

func (b *cfgBuilder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

func (b *cfgBuilder) pushBreak(brk *cfgBlock) {
	b.breaks = append(b.breaks, brk)
	b.continues = append(b.continues, nil)
}

func (b *cfgBuilder) popBreak() { b.popLoop() }

// adoptLabel wires a pending statement label to the construct being
// built, so `break L` / `continue L` resolve.
func (b *cfgBuilder) adoptLabel(brk, cont *cfgBlock) {
	if b.curLabel != nil && b.curLabel.expectingLoop {
		b.curLabel.brk = brk
		b.curLabel.cont = cont
		b.curLabel.expectingLoop = false
	}
}

// branchTarget resolves break/continue, labeled or not, to its block.
// Unresolvable branches (malformed code) fall through to exit.
func (b *cfgBuilder) branchTarget(label *ast.Ident, isBreak bool) *cfgBlock {
	if label != nil {
		if t, ok := b.labels[label.Name]; ok {
			if isBreak && t.brk != nil {
				return t.brk
			}
			if !isBreak && t.cont != nil {
				return t.cont
			}
		}
		return b.g.exit
	}
	for i := len(b.breaks) - 1; i >= 0; i-- {
		if isBreak {
			return b.breaks[i]
		}
		if b.continues[i] != nil {
			return b.continues[i]
		}
	}
	return b.g.exit
}

// ---- dataflow driver ----

// flowSet is a dataflow fact: a set of strings (lock names, for
// lockdiscipline). nil is ⊤ — "unreached" — distinct from the empty
// set; the meet operator treats it as the identity.
type flowSet map[string]bool

func (s flowSet) clone() flowSet {
	if s == nil {
		return nil // ⊤ clones to ⊤, not to the empty set — the meet
		// identity must survive cloning or must-analyses lose monotonicity
	}
	c := make(flowSet, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

func (s flowSet) equal(t flowSet) bool {
	if (s == nil) != (t == nil) || len(s) != len(t) {
		return false
	}
	for k := range s {
		if !t[k] {
			return false
		}
	}
	return true
}

// meet combines predecessor facts: intersection for a must-analysis
// (union=false), union for a may-analysis. nil operands are ⊤.
func meet(a, b flowSet, union bool) flowSet {
	if a == nil {
		return b.clone()
	}
	if b == nil {
		return a.clone()
	}
	out := make(flowSet)
	if union {
		for k := range a {
			out[k] = true
		}
		for k := range b {
			out[k] = true
		}
		return out
	}
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

// forward runs an iterative forward dataflow to fixpoint and returns
// the fact at the entry of every block (and, via funcCFG.exit, at
// function exit). transfer folds one node into a fact and must treat
// its input as immutable, returning a (possibly shared) new set.
// union=false is the must-variant (a fact holds on all paths),
// union=true the may-variant (on some path).
func (g *funcCFG) forward(entry flowSet, union bool, transfer func(n ast.Node, in flowSet) flowSet) map[*cfgBlock]flowSet {
	preds := make(map[*cfgBlock][]*cfgBlock)
	for _, blk := range g.blocks {
		for _, s := range blk.succs {
			preds[s] = append(preds[s], blk)
		}
	}
	in := make(map[*cfgBlock]flowSet, len(g.blocks))
	out := make(map[*cfgBlock]flowSet, len(g.blocks))
	in[g.entry] = entry.clone()

	changed := true
	for rounds := 0; changed && rounds < 4*len(g.blocks)+8; rounds++ {
		changed = false
		for _, blk := range g.blocks {
			var blkIn flowSet
			if blk == g.entry {
				blkIn = entry.clone()
			} else {
				for _, p := range preds[blk] {
					blkIn = meet(blkIn, out[p], union)
				}
			}
			if blkIn == nil {
				continue // unreached so far
			}
			if !blkIn.equal(in[blk]) {
				in[blk] = blkIn
				changed = true
			}
			blkOut := blkIn
			for _, n := range blk.nodes {
				blkOut = transfer(n, blkOut)
			}
			if !blkOut.equal(out[blk]) {
				out[blk] = blkOut
				changed = true
			}
		}
	}
	return in
}
