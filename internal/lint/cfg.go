package lint

import (
	"go/ast"
	"go/token"
)

// This file is the control-flow layer under the dataflow analyzers
// (sealflow, goroexit): a per-function CFG of basic blocks built from
// the AST, with reachability on top. It stays deliberately simple —
// statement-level blocks, no SSA, no critical-edge splitting — because
// the analyzers built on it reason about paths ("an exit is reachable
// from this loop"), not about values at the instruction level; value
// tracking lives in dataflow.go.
//
// Coverage notes:
//
//   - Branching statements (if/for/range/switch/type-switch/select)
//     produce the expected diamond/loop shapes; the controlling
//     expression is recorded as a node of the head block so expression
//     -level analyses see it in order.
//   - break/continue/goto honour labels. fallthrough links a case
//     block to the next case body.
//   - A return edge goes to the synthetic exit block. Statements
//     following a terminator land in an unreachable block, which the
//     builder keeps: unreachable code is the author's problem, not a
//     crash.
//   - panic(...) and calls that never return (os.Exit, log.Fatal*,
//     runtime.Goexit, t.Fatal*) terminate the block WITHOUT an edge to
//     exit: the function does not return normally through them. This
//     keeps goroexit honest (a goroutine whose only way out is panic
//     has no shutdown edge).
//   - defer bodies are not spliced into the exit path; deferred calls
//     are visible as ordinary nodes where the defer statement occurs.
//     Analyzers that care (keyzero) already handle defer lexically.

// cfgBlock is one basic block: a maximal straight-line sequence of
// statement/expression nodes with a single entry and explicit
// successor edges.
type cfgBlock struct {
	index int
	// nodes are the block's statements (and controlling expressions)
	// in execution order.
	nodes []ast.Node
	succs []*cfgBlock
	preds []*cfgBlock
}

// funcCFG is the control-flow graph of one function body.
type funcCFG struct {
	blocks []*cfgBlock
	entry  *cfgBlock
	// exit is the synthetic single exit: every return statement and
	// the fall-off-the-end path feed it.
	exit *cfgBlock
}

// bitset is a fixed-width bit vector over block indexes.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

// buildCFG constructs the CFG of a function or closure body.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	g := &funcCFG{}
	b := &cfgBuilder{g: g}
	g.entry = b.newBlock()
	g.exit = &cfgBlock{index: -1} // patched into blocks last
	b.cur = g.entry
	b.stmtList(body.List)
	// Fall off the end: an implicit return.
	b.link(b.cur, g.exit)
	b.resolveGotos()
	g.exit.index = len(g.blocks)
	g.blocks = append(g.blocks, g.exit)
	return g
}

// loopFrame tracks the jump targets a loop (or switch/select) exposes
// to break/continue, with the statement's label when present.
type loopFrame struct {
	label     string
	breakTo   *cfgBlock
	contTo    *cfgBlock // nil for switch/select frames
	isLoop    bool
	fallthru  *cfgBlock // next case body, for fallthrough
	selective bool      // switch/select frame
}

type pendingGoto struct {
	from  *cfgBlock
	label string
}

type cfgBuilder struct {
	g      *funcCFG
	cur    *cfgBlock
	frames []loopFrame
	labels map[string]*cfgBlock
	gotos  []pendingGoto
	// nextLabel holds a label immediately preceding a for/switch so
	// the frame can register it for labeled break/continue.
	nextLabel string
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{index: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func (b *cfgBuilder) link(from, to *cfgBlock) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.succs {
		if s == to {
			return
		}
	}
	from.succs = append(from.succs, to)
	to.preds = append(to.preds, from)
}

// terminate ends the current block with no successors and starts a
// fresh (unreachable until linked) block.
func (b *cfgBuilder) terminate() {
	b.cur = b.newBlock()
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
	case *ast.IfStmt:
		if s.Init != nil {
			b.cur.nodes = append(b.cur.nodes, s.Init)
		}
		b.cur.nodes = append(b.cur.nodes, s.Cond)
		head := b.cur
		then := b.newBlock()
		b.link(head, then)
		b.cur = then
		b.stmt(s.Body)
		thenEnd := b.cur
		var elseEnd *cfgBlock
		if s.Else != nil {
			els := b.newBlock()
			b.link(head, els)
			b.cur = els
			b.stmt(s.Else)
			elseEnd = b.cur
		}
		join := b.newBlock()
		b.link(thenEnd, join)
		if elseEnd != nil {
			b.link(elseEnd, join)
		} else {
			b.link(head, join)
		}
		b.cur = join
	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.cur.nodes = append(b.cur.nodes, s.Init)
		}
		head := b.newBlock()
		b.link(b.cur, head)
		if s.Cond != nil {
			head.nodes = append(head.nodes, s.Cond)
		}
		body := b.newBlock()
		exit := b.newBlock()
		b.link(head, body)
		if s.Cond != nil {
			b.link(head, exit)
		}
		post := head
		if s.Post != nil {
			post = b.newBlock()
			post.nodes = append(post.nodes, s.Post)
			b.link(post, head)
		}
		b.frames = append(b.frames, loopFrame{label: label, breakTo: exit, contTo: post, isLoop: true})
		b.cur = body
		b.stmt(s.Body)
		b.link(b.cur, post)
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = exit
	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		head.nodes = append(head.nodes, s)
		b.link(b.cur, head)
		body := b.newBlock()
		exit := b.newBlock()
		b.link(head, body)
		// Ranging over a channel only stops when the channel closes (or
		// via break/return); over anything else the collection is
		// finite. Either way the loop has a structural exit edge; the
		// goroexit analyzer separately checks channel ranges.
		b.link(head, exit)
		b.frames = append(b.frames, loopFrame{label: label, breakTo: exit, contTo: head, isLoop: true})
		b.cur = body
		b.stmt(s.Body)
		b.link(b.cur, head)
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = exit
	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.cur.nodes = append(b.cur.nodes, s.Init)
		}
		if s.Tag != nil {
			b.cur.nodes = append(b.cur.nodes, s.Tag)
		}
		b.switchClauses(label, s.Body, nil)
	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.cur.nodes = append(b.cur.nodes, s.Init)
		}
		b.cur.nodes = append(b.cur.nodes, s.Assign)
		b.switchClauses(label, s.Body, nil)
	case *ast.SelectStmt:
		label := b.takeLabel()
		b.switchClauses(label, s.Body, s)
	case *ast.LabeledStmt:
		// A label on a loop/switch registers with the frame; a label on
		// anything else is a goto target at a fresh block.
		switch s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			b.nextLabel = s.Label.Name
			b.registerLabelBlock(s.Label.Name, nil)
			b.stmt(s.Stmt)
		default:
			target := b.newBlock()
			b.link(b.cur, target)
			b.cur = target
			b.registerLabelBlock(s.Label.Name, target)
			b.stmt(s.Stmt)
		}
	case *ast.BranchStmt:
		b.cur.nodes = append(b.cur.nodes, s)
		switch s.Tok {
		case token.BREAK:
			if f := b.findFrame(s.Label, false); f != nil {
				b.link(b.cur, f.breakTo)
			}
			b.terminate()
		case token.CONTINUE:
			if f := b.findFrame(s.Label, true); f != nil {
				b.link(b.cur, f.contTo)
			}
			b.terminate()
		case token.GOTO:
			if s.Label != nil {
				b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: s.Label.Name})
			}
			b.terminate()
		case token.FALLTHROUGH:
			if len(b.frames) > 0 {
				f := b.frames[len(b.frames)-1]
				if f.fallthru != nil {
					b.link(b.cur, f.fallthru)
				}
			}
			b.terminate()
		}
	case *ast.ReturnStmt:
		b.cur.nodes = append(b.cur.nodes, s)
		b.link(b.cur, b.g.exit)
		b.terminate()
	default:
		b.cur.nodes = append(b.cur.nodes, s)
		if isNoReturnStmt(s) {
			b.terminate()
		}
	}
}

// switchClauses builds the shared clause shape of switch, type switch
// and select. sel is non-nil for a select statement.
func (b *cfgBuilder) switchClauses(label string, body *ast.BlockStmt, sel *ast.SelectStmt) {
	head := b.cur
	join := b.newBlock()
	b.frames = append(b.frames, loopFrame{label: label, breakTo: join, selective: true})
	frameIdx := len(b.frames) - 1

	// First pass: create a block per clause so fallthrough can link
	// forward.
	type clausePlan struct {
		blk   *cfgBlock
		stmts []ast.Stmt
		node  ast.Node // the clause, recorded for comm/case expr order
	}
	var plans []clausePlan
	hasDefault := false
	for _, cs := range body.List {
		switch c := cs.(type) {
		case *ast.CaseClause:
			blk := b.newBlock()
			if c.List == nil {
				hasDefault = true
			}
			plans = append(plans, clausePlan{blk: blk, stmts: c.Body, node: c})
		case *ast.CommClause:
			blk := b.newBlock()
			if c.Comm == nil {
				hasDefault = true
			}
			plans = append(plans, clausePlan{blk: blk, stmts: c.Body, node: c})
		}
	}
	for i, p := range plans {
		b.link(head, p.blk)
		if i+1 < len(plans) {
			b.frames[frameIdx].fallthru = plans[i+1].blk
		} else {
			b.frames[frameIdx].fallthru = nil
		}
		b.cur = p.blk
		switch c := p.node.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				b.cur.nodes = append(b.cur.nodes, e)
			}
		case *ast.CommClause:
			if c.Comm != nil {
				b.stmt(c.Comm)
			}
		}
		b.stmtList(p.stmts)
		b.link(b.cur, join)
	}
	// A switch without a default may skip every clause: head flows to
	// join directly. A select always executes some clause (it blocks
	// until one is ready), so head reaches join only through a clause —
	// and select{} with no clauses blocks forever, leaving join
	// unreachable.
	if sel == nil && !hasDefault {
		b.link(head, join)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = join
}

// takeLabel consumes the pending label set by a LabeledStmt.
func (b *cfgBuilder) takeLabel() string {
	l := b.nextLabel
	b.nextLabel = ""
	return l
}

func (b *cfgBuilder) registerLabelBlock(name string, blk *cfgBlock) {
	if b.labels == nil {
		b.labels = make(map[string]*cfgBlock)
	}
	if blk != nil {
		b.labels[name] = blk
	}
}

// findFrame locates the break/continue target frame for an optional
// label.
func (b *cfgBuilder) findFrame(label *ast.Ident, needLoop bool) *loopFrame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if needLoop && !f.isLoop {
			continue
		}
		if label == nil || f.label == label.Name {
			return f
		}
	}
	return nil
}

// resolveGotos links pending goto edges to their label blocks. A label
// that was registered on a loop (frame label) rather than a plain
// statement resolves through labels too when present; unresolvable
// gotos (label on a loop head) conservatively link to no target.
func (b *cfgBuilder) resolveGotos() {
	for _, g := range b.gotos {
		if target, ok := b.labels[g.label]; ok && target != nil {
			b.link(g.from, target)
		}
	}
}

// noReturnCallNames are callee base names that never return control.
var noReturnCallNames = map[string]bool{
	"panic": true, "Goexit": true, "Exit": true,
	"Fatal": true, "Fatalf": true, "Fatalln": true,
}

// isNoReturnStmt reports whether s is a call that terminates control
// flow (panic, os.Exit, log.Fatal*, t.Fatal*, runtime.Goexit).
func isNoReturnStmt(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	_, name := calleeParts(call)
	return noReturnCallNames[name]
}

// reachableFrom returns the set of blocks reachable from start
// (inclusive).
func (g *funcCFG) reachableFrom(start *cfgBlock) bitset {
	seen := newBitset(len(g.blocks))
	stack := []*cfgBlock{start}
	seen.set(start.index)
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range blk.succs {
			if !seen.has(s.index) {
				seen.set(s.index)
				stack = append(stack, s)
			}
		}
	}
	return seen
}
