package lint

import (
	"go/ast"
	"go/token"
	"sort"
)

// FsyncOrderAnalyzer machine-checks the durability ordering the
// log-structured engine's crash-recovery argument rests on: content
// must be durable before the commit point that makes it reachable, and
// the commit point itself must be made durable before success is
// reported. Four CFG-based rules, scoped to the one package that does
// durable file I/O (store/logengine):
//
//   - Rule A — every os.Rename (the commit primitive) must be
//     dominated by a file fsync: the bytes being committed must be on
//     disk before the name points at them.
//   - Rule B — every os.Rename must be followed by a directory fsync
//     on all non-error paths: the rename itself is not durable until
//     the directory entry is.
//   - Rule C — a call to a commit helper (a package-local callee whose
//     summary renames) made after segment-writer calls (callees that
//     write and fsync a new file) must be dominated by a directory
//     fsync: the new file's directory entry must be durable before the
//     manifest references it.
//   - Rule D — a function that writes file content directly must fsync
//     it before any non-error return: un-synced acknowledged writes
//     are the silent-loss window. (The WAL append deliberately defers
//     this to the engine's fsync policy — that one site carries a
//     justified ignore directive.)
//
// Error-path returns (final result an identifier other than nil, or a
// call) are exempt from B and D: failing loudly without durability is
// correct; succeeding without it is the bug.
var FsyncOrderAnalyzer = &Analyzer{
	Name: "fsyncorder",
	Doc:  "storage commit points need fsync-before-rename and dirsync-after-rename on all success paths",
	Run:  runFsyncOrder,
}

// fsyncScope is the package the durability rules apply to.
const fsyncScope = "logengine"

// fsEventKind classifies a durability-relevant call site.
type fsEventKind uint8

const (
	evWrite     fsEventKind = 1 << iota // file content write
	evSync                              // file fsync
	evDirSync                           // directory fsync
	evRename                            // os.Rename commit
	evCommit                            // call to a renames-summarised callee
	evSegWriter                         // call to a write+fsync callee (new-file writer)
)

// fsEvent is one classified call at a CFG position.
type fsEvent struct {
	block int // block index
	node  int // node index within the block
	seq   int // ordinal within the node (source order)
	kind  fsEventKind
	call  *ast.CallExpr
}

func runFsyncOrder(pass *Pass) {
	pkg := pass.Pkg
	if pkg.Types == nil || pkg.Types.Name() != fsyncScope {
		return
	}
	g := buildCallGraph(pkg)
	for _, n := range g.order {
		checkFsyncOrder(pass, g, n)
		ast.Inspect(n.decl.Body, func(x ast.Node) bool {
			if lit, ok := x.(*ast.FuncLit); ok {
				checkFsyncOrderBody(pass, g, buildCFG(lit.Body), dirSyncShaped(n.decl.Name.Name))
			}
			return true
		})
	}
}

func checkFsyncOrder(pass *Pass, g *callGraph, n *funcNode) {
	checkFsyncOrderBody(pass, g, n.summary.cfg, dirSyncShaped(n.decl.Name.Name))
}

func checkFsyncOrderBody(pass *Pass, g *callGraph, cfg *funcCFG, inDirSyncHelper bool) {
	events := collectFsEvents(g, cfg, inDirSyncHelper)
	if len(events) == 0 {
		return
	}

	// Rule A: renames dominated by a file fsync.
	for _, r := range events {
		if r.kind&evRename == 0 {
			continue
		}
		if !eventDominated(cfg, events, r, evSync|evDirSync) {
			pass.Reportf(r.call.Pos(), "os.Rename commit is not preceded by a file fsync on every path; the renamed content may not be durable")
		}
	}

	// Rule B: renames followed by a directory fsync on all non-error
	// paths.
	for _, r := range events {
		if r.kind&evRename == 0 {
			continue
		}
		if pos, ok := firstUnsyncedExit(cfg, events, r); ok {
			pass.Reportf(pos, "success path after os.Rename returns without a directory fsync; the commit may vanish on crash")
		}
	}

	// Rule C: commit-helper calls after segment-writer calls need a
	// dominating directory fsync.
	for _, c := range events {
		if c.kind&evCommit == 0 {
			continue
		}
		if !eventDominated(cfg, events, c, evSegWriter) {
			continue // nothing new on disk to make reachable
		}
		if !eventDominated(cfg, events, c, evDirSync) {
			pass.Reportf(c.call.Pos(), "commit call follows a segment write without an intervening directory fsync; the new file's directory entry may not be durable at commit")
		}
	}

	// Rule D: direct writes fsynced before non-error returns.
	checkDirtyReturns(pass, cfg, events)
}

// collectFsEvents classifies every call in the CFG. Calls inside
// FuncLits are excluded (separate analysis units).
func collectFsEvents(g *callGraph, cfg *funcCFG, inDirSyncHelper bool) []fsEvent {
	var events []fsEvent
	for _, blk := range cfg.blocks {
		for ni, node := range blk.nodes {
			seq := 0
			ast.Inspect(node, func(x ast.Node) bool {
				if _, ok := x.(*ast.FuncLit); ok {
					return false
				}
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				var kind fsEventKind
				switch {
				case isFileWriteCall(g.pkg, call):
					kind |= evWrite
				case isFileSyncCall(g.pkg, call):
					if inDirSyncHelper {
						kind |= evDirSync
					} else {
						kind |= evSync
					}
				case isRenameCall(g.pkg, call):
					kind |= evRename
				}
				if callee := g.resolve(call); callee != nil {
					cs := callee.summary
					if cs.syncsDir {
						kind |= evDirSync
					}
					if cs.syncs {
						kind |= evSync
					}
					if cs.renames {
						kind |= evCommit
					}
					if cs.writesFile && cs.syncs && !cs.syncsDir && !cs.renames {
						kind |= evSegWriter
					}
				}
				if kind != 0 {
					events = append(events, fsEvent{
						block: blk.index, node: ni, seq: seq, kind: kind, call: call,
					})
				}
				seq++
				return true
			})
		}
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].block != events[j].block {
			return events[i].block < events[j].block
		}
		if events[i].node != events[j].node {
			return events[i].node < events[j].node
		}
		return events[i].seq < events[j].seq
	})
	return events
}

// eventDominated reports whether some event of the wanted kind
// dominates target: it sits in a strictly dominating block, or earlier
// within the same block.
func eventDominated(cfg *funcCFG, events []fsEvent, target fsEvent, want fsEventKind) bool {
	for _, e := range events {
		if e.kind&want == 0 || e.call == target.call {
			continue
		}
		if e.block == target.block {
			if e.node < target.node || (e.node == target.node && e.seq < target.seq) {
				return true
			}
			continue
		}
		if cfg.dominates(cfg.blocks[e.block], cfg.blocks[target.block]) {
			return true
		}
	}
	return false
}

// firstUnsyncedExit walks forward from a rename event looking for a
// non-error exit not preceded by a directory fsync, returning its
// position.
func firstUnsyncedExit(cfg *funcCFG, events []fsEvent, r fsEvent) (pos token.Pos, found bool) {
	// eventsAt indexes events by (block, node) for the walk.
	type nodeKey struct{ block, node int }
	byNode := make(map[nodeKey][]fsEvent)
	for _, e := range events {
		k := nodeKey{e.block, e.node}
		byNode[k] = append(byNode[k], e)
	}

	visited := newBitset(len(cfg.blocks))
	var walk func(blk *cfgBlock, startNode, startSeq int) (token.Pos, bool)
	walk = func(blk *cfgBlock, startNode, startSeq int) (token.Pos, bool) {
		for ni := startNode; ni < len(blk.nodes); ni++ {
			for _, e := range byNode[nodeKey{blk.index, ni}] {
				if ni == startNode && e.seq < startSeq {
					continue
				}
				if e.kind&evDirSync != 0 {
					return 0, false // this path is covered
				}
			}
			if ret, ok := blk.nodes[ni].(*ast.ReturnStmt); ok {
				if nonErrorReturn(ret) {
					return ret.Pos(), true
				}
				return 0, false // error path: failing loudly is fine
			}
		}
		if blk == cfg.exit {
			// Fell off the end of the function after the rename.
			return r.call.End(), true
		}
		for _, s := range blk.succs {
			if visited.has(s.index) {
				continue
			}
			visited.set(s.index)
			if p, ok := walk(s, 0, 0); ok {
				return p, true
			}
		}
		return 0, false
	}
	return walk(cfg.blocks[r.block], r.node, r.seq+1)
}

// nonErrorReturn reports whether ret is a success-path return: no
// results, or a final result that is literally nil. Returns whose
// final result is a variable or call are treated as possible error
// paths and exempt — the rules police success, not failure.
func nonErrorReturn(ret *ast.ReturnStmt) bool {
	if len(ret.Results) == 0 {
		return true
	}
	last := ast.Unparen(ret.Results[len(ret.Results)-1])
	id, ok := last.(*ast.Ident)
	return ok && id.Name == "nil"
}

// checkDirtyReturns is rule D: a forward boolean dataflow over the CFG
// tracking "wrote file content not yet fsynced"; non-error returns in
// the dirty state are reported.
func checkDirtyReturns(pass *Pass, cfg *funcCFG, events []fsEvent) {
	hasDirect := false
	for _, e := range events {
		if e.kind&evWrite != 0 {
			hasDirect = true
			break
		}
	}
	if !hasDirect {
		return
	}
	type nodeKey struct{ block, node int }
	byNode := make(map[nodeKey][]fsEvent)
	for _, e := range events {
		k := nodeKey{e.block, e.node}
		byNode[k] = append(byNode[k], e)
	}

	transferNode := func(dirty bool, blockIdx, nodeIdx int) bool {
		for _, e := range byNode[nodeKey{blockIdx, nodeIdx}] {
			if e.kind&(evSync|evDirSync) != 0 {
				dirty = false
			}
			if e.kind&evWrite != 0 {
				dirty = true
			}
		}
		return dirty
	}

	in := make([]bool, len(cfg.blocks))
	seen := make([]bool, len(cfg.blocks))
	seen[cfg.entry.index] = true
	work := []*cfgBlock{cfg.entry}
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		dirty := in[blk.index]
		for ni := range blk.nodes {
			dirty = transferNode(dirty, blk.index, ni)
		}
		for _, s := range blk.succs {
			if !seen[s.index] || (dirty && !in[s.index]) {
				seen[s.index] = true
				in[s.index] = in[s.index] || dirty
				work = append(work, s)
			}
		}
	}

	reported := map[*ast.ReturnStmt]bool{}
	for _, blk := range cfg.blocks {
		if !seen[blk.index] {
			continue
		}
		dirty := in[blk.index]
		for ni, node := range blk.nodes {
			dirty = transferNode(dirty, blk.index, ni)
			ret, ok := node.(*ast.ReturnStmt)
			if !ok || reported[ret] {
				continue
			}
			if dirty && nonErrorReturn(ret) {
				reported[ret] = true
				pass.Reportf(ret.Pos(), "file content written here is not fsynced before this success return; an acknowledged write may be lost on crash")
			}
		}
	}
}
