package lint

import (
	"go/ast"
	"go/types"
)

// This file builds the one-level call-graph summary layer: for every
// function declared in the package under analysis, a funcSummary of
// the facts the dataflow analyzers need about its callees — "returns
// tainted data", "propagates argument taint to its results", "sinks a
// tainted argument to the network/disk/log", "never returns".
//
// Summaries are computed callee-first (DFS postorder over the
// package-local call graph, cycles broken arbitrarily), so by the time
// a caller is summarised its callees' summaries are available — one
// level of interprocedural precision without a whole-program fixpoint.
// Cross-package calls resolve only to the hardcoded source/sanitizer/
// sink tables (dataflow.go); everything else is treated as opaque and
// taint-free, which keeps the analyzers conservative-quiet rather than
// conservative-noisy.

// taintMask classifies what a value carries.
type taintMask uint8

const (
	// taintKey marks key material: derived keys, secrets, passphrases.
	taintKey taintMask = 1 << iota
	// taintPlain marks enclave plaintext: unsealed record contents,
	// dictionary fields (challenge, wrapped key) outside a seal.
	taintPlain
	// taintParam is the synthetic mark used while summarising: it
	// tracks whether a function's parameters reach its results or a
	// sink, without claiming the parameters are actually tainted.
	taintParam
)

func (m taintMask) describe() string {
	switch {
	case m&taintKey != 0:
		return "key material"
	case m&taintPlain != 0:
		return "enclave plaintext"
	}
	return "tainted data"
}

// funcSummary is the one-level abstract of a function body.
type funcSummary struct {
	// resultTaint[i] is the taint result i carries regardless of the
	// arguments (the function is a source).
	resultTaint []taintMask
	// propagates reports that argument taint flows to the results
	// (identity-ish transforms: encoders, copiers, formatters).
	propagates bool
	// sinkDesc, when non-empty, reports that an argument reaches a
	// sink inside the function; sinkAccepts is the taint class the
	// sink objects to.
	sinkDesc    string
	sinkAccepts taintMask
	// seals reports the function passes its arguments through a
	// sealing primitive before anything leaves (its results are
	// ciphertext). Such calls act as sanitizers at call sites.
	seals bool

	// neverReturns: the exit block is unreachable — the function can
	// only leave by blocking forever or panicking.
	neverReturns bool
	// cfg is retained for the analyzers' own passes.
	cfg *funcCFG
}

// funcNode is one declared function plus its summary.
type funcNode struct {
	decl    *ast.FuncDecl
	obj     *types.Func
	summary funcSummary
}

// callGraph indexes the package's declared functions and their
// summaries.
type callGraph struct {
	pkg *Package
	// byObj maps the type-checker's object to the node; byName is the
	// fallback for fixture code with incomplete type info, keyed on
	// the bare declaration name (ambiguous names resolve to nil).
	byObj  map[*types.Func]*funcNode
	byName map[string]*funcNode
	// order is callee-first.
	order []*funcNode
}

// buildCallGraph collects the package's function declarations and
// computes their summaries callee-first. The summarise callback runs
// the taint engine for the taint-related fields; never-returns is
// computed here.
func buildCallGraph(pkg *Package) *callGraph {
	g := &callGraph{
		pkg:    pkg,
		byObj:  make(map[*types.Func]*funcNode),
		byName: make(map[string]*funcNode),
	}
	var nodes []*funcNode
	forEachFunc(pkg, func(_ *ast.File, fd *ast.FuncDecl) {
		n := &funcNode{decl: fd}
		if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
			n.obj = obj
			g.byObj[obj] = n
		}
		if prev, clash := g.byName[fd.Name.Name]; clash && prev != nil {
			g.byName[fd.Name.Name] = nil // ambiguous: methods sharing a name
		} else if !clash {
			g.byName[fd.Name.Name] = n
		}
		nodes = append(nodes, n)
	})

	// Callee-first ordering by DFS postorder over package-local edges.
	visited := make(map[*funcNode]bool)
	var visit func(n *funcNode)
	visit = func(n *funcNode) {
		if visited[n] {
			return
		}
		visited[n] = true
		ast.Inspect(n.decl.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := g.resolve(call); callee != nil && callee != n {
				visit(callee)
			}
			return true
		})
		g.order = append(g.order, n)
	}
	for _, n := range nodes {
		visit(n)
	}

	for _, n := range g.order {
		n.summary.cfg = buildCFG(n.decl.Body)
		reach := n.summary.cfg.reachableFrom(n.summary.cfg.entry)
		n.summary.neverReturns = !reach.has(n.summary.cfg.exit.index)
	}
	return g
}

// resolve maps a call expression to the package-local function it
// invokes, or nil. Resolution goes through type info when available
// and falls back to unique bare names (fixtures type-check with holes).
func (g *callGraph) resolve(call *ast.CallExpr) *funcNode {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj := g.pkg.Info.Uses[fn]; obj != nil {
			// Type info resolved the callee: trust it. A non-local
			// object — a builtin such as append, a func-typed variable —
			// must not fall back to a same-named local method.
			f, _ := obj.(*types.Func)
			return g.byObj[f]
		}
		return g.byName[fn.Name]
	case *ast.SelectorExpr:
		if obj, ok := g.pkg.Info.Uses[fn.Sel].(*types.Func); ok {
			return g.byObj[obj]
		}
		// A selector only falls back by name when the qualifier is not
		// a package (a method on a local value whose type didn't
		// resolve — fixture packages type-check with holes).
		if pkgPathOf(g.pkg, fn.X) == "" {
			return g.byName[fn.Sel.Name]
		}
	}
	return nil
}

// isFileWriterRecv reports whether e is a file-backed writer: a
// bufio.Writer, or anything that can be fsynced — *os.File, and a file
// reached through a file-system interface such as the storage engine's.
// bytes.Buffer and strings.Builder are memory, and have no Sync.
func isFileWriterRecv(pkg *Package, e ast.Expr) bool {
	n := namedTypeOf(pkg, e)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	if n.Obj().Pkg().Name() == "bufio" && n.Obj().Name() == "Writer" {
		return true
	}
	sync, _, _ := types.LookupFieldOrMethod(n, true, n.Obj().Pkg(), "Sync")
	_, ok := sync.(*types.Func)
	return ok
}

// isFileWriteCall recognises base file-write events: Write-family
// methods on a file-backed writer (isFileWriterRecv), and os.WriteFile.
func isFileWriteCall(pkg *Package, call *ast.CallExpr) bool {
	if isPkgFunc(pkg, call, "os", "WriteFile") {
		return true
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Write", "WriteString", "WriteAt", "WriteByte":
	default:
		return false
	}
	return isFileWriterRecv(pkg, sel.X)
}
