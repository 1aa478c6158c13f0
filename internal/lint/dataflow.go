package lint

import (
	"go/ast"
	"go/types"
)

// This file is the forward intraprocedural taint engine: an abstract
// interpretation over the CFG (cfg.go) that tracks which local values
// carry key material or enclave plaintext, through assignments,
// slicing/indexing, struct fields, composite literals, conversions,
// append/copy, and calls — where the one-level call-graph summaries
// (callgraph.go) stand in for callee bodies.
//
// The lattice is a per-object taintMask joined by union; blocks
// iterate to a fixpoint with a worklist, and a final deterministic
// pass replays the transfer functions with reporting enabled so each
// sink fires exactly once, against the stable in-states.
//
// Two deliberate asymmetries keep the engine conservative-quiet:
// unknown callees produce untainted results (taint needs positive
// evidence to appear), and only a small allowlist of pure stdlib
// transforms (fmt.Sprint*, bytes/strings joins, append, copy, method
// calls on a tainted receiver) propagates taint through a call.

// taintHooks parameterise a taint run; sealflow supplies the SPEED
// policy, tests can supply their own.
type taintHooks struct {
	pkg   *Package
	graph *callGraph

	// sourceCall classifies a call as a taint source, returning one
	// mask per result (nil = not a source).
	sourceCall func(call *ast.CallExpr) []taintMask
	// exprTaint classifies an expression as inherently tainted
	// (secret-named buffers, Record-typed values). override=true means
	// the returned mask replaces any taint inherited from the root
	// (used to keep Record.Blob — ciphertext — clean inside a tainted
	// Record).
	exprTaint func(e ast.Expr) (mask taintMask, override bool)
	// sanitizer reports that a call's results are sealed/clean
	// regardless of argument taint.
	sanitizer func(call *ast.CallExpr) bool
	// sink classifies a call as a sink: accepts is the taint class the
	// sink objects to, desc names it in diagnostics. Arguments (not
	// the receiver) are checked.
	sink func(call *ast.CallExpr) (accepts taintMask, desc string)
	// report receives confirmed source-to-sink flows during the report
	// pass: the offending argument, its taint, the taint class the sink
	// objects to, and the sink description. Nil during plain runs.
	report func(arg ast.Expr, mask, accepts taintMask, desc string)
}

// taintState maps local objects (vars, params, results) to what they
// carry.
type taintState map[types.Object]taintMask

func (s taintState) clone() taintState {
	out := make(taintState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// join unions o into s, reporting change.
func (s taintState) join(o taintState) bool {
	changed := false
	for k, v := range o {
		if s[k]&v != v {
			s[k] |= v
			changed = true
		}
	}
	return changed
}

// taintRun is one engine execution over one function body.
type taintRun struct {
	hooks *taintHooks
	cfg   *funcCFG
	in    []taintState
	// returnMask accumulates the joined taint of each return operand
	// position (for summaries).
	returnMask []taintMask
	// inlined records closures analyzed at their use sites, so callers
	// do not analyze them a second time in isolation.
	inlined   map[*ast.FuncLit]bool
	reporting bool
}

// runTaint executes the engine over fn's CFG. entry seeds the entry
// state (parameter marks for summary runs; empty otherwise).
func runTaint(hooks *taintHooks, cfg *funcCFG, entry taintState) *taintRun {
	r := newTaintRun(hooks, cfg)
	r.fixpoint(entry)
	r.reportPass()
	return r
}

func newTaintRun(hooks *taintHooks, cfg *funcCFG) *taintRun {
	r := &taintRun{
		hooks:   hooks,
		cfg:     cfg,
		in:      make([]taintState, len(cfg.blocks)),
		inlined: make(map[*ast.FuncLit]bool),
	}
	for i := range r.in {
		r.in[i] = make(taintState)
	}
	return r
}

// fixpoint runs the worklist iteration to a stable assignment of
// in-states.
func (r *taintRun) fixpoint(entry taintState) {
	if entry != nil {
		r.in[r.cfg.entry.index] = entry.clone()
	}
	// Seed every block, entry first: each must be processed at least
	// once even if its in-state never changes from the initial empty
	// map, or a clean predecessor would stop the walk before return
	// statements and sinks downstream were ever visited.
	work := make([]*cfgBlock, 0, len(r.cfg.blocks))
	queued := newBitset(len(r.cfg.blocks))
	for i := len(r.cfg.blocks) - 1; i >= 0; i-- {
		work = append(work, r.cfg.blocks[i])
		queued.set(r.cfg.blocks[i].index)
	}
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		queued[blk.index/64] &^= 1 << (blk.index % 64)
		out := r.in[blk.index].clone()
		for _, n := range blk.nodes {
			r.transfer(out, n)
		}
		for _, s := range blk.succs {
			if r.in[s.index].join(out) && !queued.has(s.index) {
				queued.set(s.index)
				work = append(work, s)
			}
		}
	}
}

// reportPass replays each reachable block once against its stable
// in-state, in block order for determinism, with reporting enabled.
func (r *taintRun) reportPass() {
	r.reporting = true
	reach := r.cfg.reachableFrom(r.cfg.entry)
	for _, blk := range r.cfg.blocks {
		if !reach.has(blk.index) {
			continue
		}
		st := r.in[blk.index].clone()
		for _, n := range blk.nodes {
			r.transfer(st, n)
		}
	}
	r.reporting = false
}

// inlineFuncLit analyzes a closure at its use site, sharing the
// caller's state: the body starts from the current state (captured
// variables keep their taint) and its effects on captured variables
// flow back by joining every reachable block's out-state. This is what
// makes the `Enclave.ECall(func() error { ... })` idiom transparent —
// work done inside the closure is visible to the code around it.
// Returns the closure's result masks.
func (r *taintRun) inlineFuncLit(st taintState, lit *ast.FuncLit) []taintMask {
	r.inlined[lit] = true
	inner := newTaintRun(r.hooks, buildCFG(lit.Body))
	inner.inlined = r.inlined // share so nested lits are marked too
	inner.fixpoint(st)
	if r.reporting {
		inner.reportPass()
	}
	reach := inner.cfg.reachableFrom(inner.cfg.entry)
	for _, blk := range inner.cfg.blocks {
		if !reach.has(blk.index) {
			continue
		}
		out := inner.in[blk.index].clone()
		for _, n := range blk.nodes {
			inner.transfer(out, n)
		}
		st.join(out)
	}
	return inner.returnMask
}

// transfer applies one CFG node to the state in place.
func (r *taintRun) transfer(st taintState, n ast.Node) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		r.assign(st, n)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				var result func(int) taintMask
				if len(vs.Values) == 1 && len(vs.Names) > 1 {
					result = r.resultMasks(st, vs.Values[0])
				}
				for i, name := range vs.Names {
					var mask taintMask
					if len(vs.Values) == len(vs.Names) {
						mask = r.eval(st, vs.Values[i])
					} else if result != nil {
						mask = result(i)
					}
					r.setIdent(st, name, mask)
				}
			}
		}
	case *ast.RangeStmt:
		mask := r.eval(st, n.X)
		if n.Value != nil {
			if id, ok := n.Value.(*ast.Ident); ok {
				r.setIdent(st, id, mask)
			}
		}
		if n.Key != nil {
			// Map keys and indexes are not payload; only tainted for
			// string-keyed iteration over tainted maps — out of scope.
			if id, ok := n.Key.(*ast.Ident); ok && mask == 0 {
				r.setIdent(st, id, 0)
			}
		}
	case *ast.ReturnStmt:
		for i, res := range n.Results {
			mask := r.eval(st, res)
			for len(r.returnMask) <= i {
				r.returnMask = append(r.returnMask, 0)
			}
			r.returnMask[i] |= mask
		}
	case *ast.IncDecStmt:
		// No taint effect.
	case *ast.SendStmt:
		r.eval(st, n.Value)
	case *ast.ExprStmt:
		r.eval(st, n.X)
	case *ast.GoStmt:
		r.evalCall(st, n.Call)
	case *ast.DeferStmt:
		r.evalCall(st, n.Call)
	case ast.Expr:
		r.eval(st, n)
	case ast.Stmt:
		// Any other statement shape: evaluate the calls it contains so
		// sinks inside (e.g. an if-init) are still seen.
		ast.Inspect(n, func(x ast.Node) bool {
			if _, ok := x.(*ast.FuncLit); ok {
				return false
			}
			if call, ok := x.(*ast.CallExpr); ok {
				r.evalCall(st, call)
				return false
			}
			return true
		})
	}
}

// assign handles =, :=, +=-style statements.
func (r *taintRun) assign(st taintState, a *ast.AssignStmt) {
	if len(a.Rhs) == 1 && len(a.Lhs) > 1 {
		// Tuple assignment from one call, evaluated (and its sinks
		// reported) once.
		result := r.resultMasks(st, a.Rhs[0])
		for i, lhs := range a.Lhs {
			r.store(st, lhs, result(i))
		}
		return
	}
	for i, lhs := range a.Lhs {
		if i >= len(a.Rhs) {
			break
		}
		mask := r.eval(st, a.Rhs[i])
		if len(a.Lhs) == len(a.Rhs) && a.Tok.String() == "+=" {
			mask |= r.eval(st, lhs)
		}
		r.store(st, lhs, mask)
	}
}

// resultMasks evaluates a (possibly multi-result) RHS expression once
// and returns the taint of its result i.
func (r *taintRun) resultMasks(st taintState, rhs ast.Expr) func(i int) taintMask {
	var masks []taintMask
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
		masks = r.callMasks(st, call)
	} else {
		masks = []taintMask{r.eval(st, rhs)}
	}
	return func(i int) taintMask {
		if i < len(masks) {
			return masks[i]
		}
		if len(masks) > 0 {
			return masks[0]
		}
		return 0
	}
}

// store writes a mask to an lvalue: strong update for plain
// identifiers, weak (taint-only) update through fields, indexes and
// dereferences — assigning into x.f or x[i] taints the root x but
// clearing it never untaints the whole aggregate.
func (r *taintRun) store(st taintState, lhs ast.Expr, mask taintMask) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		r.setIdent(st, l, mask)
	default:
		if mask == 0 {
			return
		}
		if root := rootObj(r.hooks.pkg, lhs); root != nil {
			st[root] |= mask
		}
	}
}

func (r *taintRun) setIdent(st taintState, id *ast.Ident, mask taintMask) {
	if id.Name == "_" {
		return
	}
	obj := r.hooks.pkg.Info.Defs[id]
	if obj == nil {
		obj = r.hooks.pkg.Info.Uses[id]
	}
	if obj == nil {
		return
	}
	if mask == 0 {
		delete(st, obj)
	} else {
		st[obj] = mask
	}
}

// rootObj finds the base object of an lvalue/expression chain.
func rootObj(pkg *Package, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := pkg.Info.Uses[x]; obj != nil {
				return obj
			}
			return pkg.Info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.CallExpr, *ast.CompositeLit:
			return nil
		default:
			return nil
		}
	}
}

// eval computes the taint of an expression, firing sink checks for
// calls along the way.
func (r *taintRun) eval(st taintState, e ast.Expr) taintMask {
	if e == nil {
		return 0
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		var mask taintMask
		if obj := r.identObj(x); obj != nil {
			mask = st[obj]
		}
		if m, override := r.hooks.exprTaint(x); override {
			return m
		} else {
			mask |= m
		}
		return mask
	case *ast.SelectorExpr:
		// Package qualifier: not a value.
		if pkgPathOf(r.hooks.pkg, x.X) != "" {
			return 0
		}
		if m, override := r.hooks.exprTaint(x); override {
			return m
		} else {
			var mask taintMask
			if sel := r.hooks.pkg.Info.Uses[x.Sel]; sel != nil {
				mask |= st[sel]
			}
			return mask | m | r.eval(st, x.X)
		}
	case *ast.IndexExpr:
		return r.eval(st, x.X)
	case *ast.SliceExpr:
		return r.eval(st, x.X)
	case *ast.StarExpr:
		return r.eval(st, x.X)
	case *ast.UnaryExpr:
		return r.eval(st, x.X)
	case *ast.BinaryExpr:
		return r.eval(st, x.X) | r.eval(st, x.Y)
	case *ast.CompositeLit:
		var mask taintMask
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				mask |= r.eval(st, kv.Value)
			} else {
				mask |= r.eval(st, el)
			}
		}
		return mask
	case *ast.CallExpr:
		return r.evalCall(st, x)
	case *ast.TypeAssertExpr:
		return r.eval(st, x.X)
	case *ast.FuncLit, *ast.BasicLit, *ast.ArrayType, *ast.MapType,
		*ast.StructType, *ast.ChanType, *ast.InterfaceType, *ast.FuncType:
		return 0
	}
	return 0
}

func (r *taintRun) identObj(id *ast.Ident) types.Object {
	if obj := r.hooks.pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return r.hooks.pkg.Info.Defs[id]
}

// evalCall handles call expressions: conversions, builtins, sources,
// sanitizers, summaries, sinks, and the pure-transform allowlist. It
// returns the joined taint of the call's results.
func (r *taintRun) evalCall(st taintState, call *ast.CallExpr) taintMask {
	masks := r.callMasks(st, call)
	var out taintMask
	for _, m := range masks {
		out |= m
	}
	return out
}

// callMasks is evalCall returning per-result masks.
func (r *taintRun) callMasks(st taintState, call *ast.CallExpr) []taintMask {
	h := r.hooks
	pkg := h.pkg

	// Closure callees and callback arguments are inlined at the call
	// site: their bodies run against (and mutate) the caller's state,
	// so captured variables carry taint in and out. As an argument, a
	// callback carries what it returns: that is what the callee gets
	// when it calls it.
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		for _, a := range call.Args {
			r.eval(st, a)
		}
		return r.inlineFuncLit(st, lit)
	}
	var returned map[ast.Expr]taintMask
	for _, a := range call.Args {
		if lit, ok := ast.Unparen(a).(*ast.FuncLit); ok {
			for _, m := range r.inlineFuncLit(st, lit) {
				if returned == nil {
					returned = make(map[ast.Expr]taintMask)
				}
				returned[a] |= m
			}
		}
	}
	arg := func(a ast.Expr) taintMask { return r.eval(st, a) | returned[a] }

	// Type conversion: taint flows through ([]byte(x), string(x)).
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		var m taintMask
		for _, a := range call.Args {
			m |= r.eval(st, a)
		}
		return []taintMask{m}
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch id.Name {
		case "append":
			var m taintMask
			for _, a := range call.Args {
				m |= r.eval(st, a)
			}
			return []taintMask{m}
		case "copy":
			if len(call.Args) == 2 {
				if m := r.eval(st, call.Args[1]); m != 0 {
					if root := rootObj(pkg, call.Args[0]); root != nil {
						st[root] |= m
					}
				}
			}
			return nil
		case "len", "cap", "make", "new", "delete", "clear", "min", "max":
			// Evaluate args for nested calls, result clean.
			for _, a := range call.Args {
				r.eval(st, a)
			}
			return nil
		case "panic", "print", "println":
			for _, a := range call.Args {
				r.eval(st, a)
			}
			return nil
		}
	}

	// Sanitizer: results are ciphertext no matter what went in. Args
	// still evaluate (nested calls may sink).
	if h.sanitizer != nil && h.sanitizer(call) {
		for _, a := range call.Args {
			r.eval(st, a)
		}
		return nil
	}

	// Source: fixed result masks.
	if h.sourceCall != nil {
		if masks := h.sourceCall(call); masks != nil {
			for _, a := range call.Args {
				r.eval(st, a)
			}
			return masks
		}
	}

	// Direct sink check. taintParam also counts: a parameter reaching
	// a sink is what makes the enclosing function a sink in its own
	// summary.
	if h.sink != nil {
		if accepts, desc := h.sink(call); accepts != 0 {
			for _, a := range call.Args {
				if m := r.eval(st, a); m&(accepts|taintParam) != 0 {
					r.reportSink(a, m, accepts, desc)
				}
			}
			// A sink consumes; its result (byte counts, errors) is
			// clean.
			return nil
		}
	}

	// Package-local callee: use its summary.
	var argMask taintMask
	for _, a := range call.Args {
		argMask |= arg(a)
	}
	if recv := callReceiver(call); recv != nil {
		argMask |= r.eval(st, recv)
	}
	if h.graph != nil {
		if callee := h.graph.resolve(call); callee != nil {
			sum := callee.summary
			if sum.sinkDesc != "" && argMask&(sum.sinkAccepts|taintParam) != 0 {
				// Report on the first offending argument for a stable
				// position.
				for _, a := range call.Args {
					if m := arg(a); m&(sum.sinkAccepts|taintParam) != 0 {
						r.reportSink(a, m, sum.sinkAccepts, sum.sinkDesc)
						break
					}
				}
			}
			if sum.seals {
				return nil
			}
			out := make([]taintMask, len(sum.resultTaint))
			copy(out, sum.resultTaint)
			if sum.propagates && argMask != 0 {
				if len(out) == 0 {
					out = []taintMask{0}
				}
				for i := range out {
					out[i] |= argMask
				}
			}
			return out
		}
	}

	// Pure-transform allowlist: formatting and byte/string plumbing
	// keeps taint alive; so does calling a method on a tainted
	// receiver (bytes.Buffer round trips).
	if argMask != 0 && isTaintPreservingCall(pkg, call) {
		return []taintMask{argMask}
	}
	if recv := callReceiver(call); recv != nil {
		if m := r.eval(st, recv); m != 0 {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && publicProjectionMethods[sel.Sel.Name] {
				// Projections that expose only public facts about a
				// secret (its public key, its length) do not carry the
				// secret.
				return nil
			}
			return []taintMask{m}
		}
	}
	// Calling a function value hands back what the value carries: a
	// callback parameter's results are its caller's data.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if m := r.eval(st, id); m != 0 {
			return []taintMask{m}
		}
	}
	return nil
}

// publicProjectionMethods are method names whose results expose only
// public facts about a tainted receiver, defusing receiver-taint
// propagation (priv.PublicKey().Bytes() is not key material).
var publicProjectionMethods = map[string]bool{
	"Public": true, "PublicKey": true, "Len": true, "Size": true,
	"Cap": true, "Count": true, "Err": true, "Error": true, "Close": true,
}

// reportSink forwards a confirmed flow during the report pass only.
func (r *taintRun) reportSink(arg ast.Expr, mask, accepts taintMask, desc string) {
	if !r.reporting || r.hooks.report == nil {
		return
	}
	r.hooks.report(arg, mask, accepts, desc)
}

// callReceiver returns the receiver expression of a method call, nil
// for package functions and plain calls.
func callReceiver(call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return sel.X
}

// taintPreservingFuncs are stdlib package functions through which
// argument taint survives into the result.
var taintPreservingFuncs = map[string]map[string]bool{
	"fmt":     {"Sprintf": true, "Sprint": true, "Sprintln": true, "Appendf": true, "Append": true},
	"bytes":   {"Join": true, "Clone": true, "TrimSpace": true, "ToLower": true, "ToUpper": true, "Repeat": true},
	"strings": {"Join": true, "Clone": true, "TrimSpace": true, "ToLower": true, "ToUpper": true, "Repeat": true},
	"hex":     {"EncodeToString": true, "AppendEncode": true},
	"base64":  {"EncodeToString": true},
}

func isTaintPreservingCall(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	path := pkgPathOf(pkg, sel.X)
	if path == "" {
		return false
	}
	base := path
	if j := lastSlash(path); j >= 0 {
		base = path[j+1:]
	}
	set, ok := taintPreservingFuncs[base]
	return ok && set[sel.Sel.Name]
}

func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' {
			return i
		}
	}
	return -1
}

// summariseTaint fills the taint-related summary fields of every
// function in the graph, callee-first, using the supplied hooks. Two
// runs per function: one with clean parameters (detecting source-like
// results), one with parameter-marked state (detecting propagation and
// parameter sinks).
func summariseTaint(hooks *taintHooks, g *callGraph) {
	for _, n := range g.order {
		cfg := n.summary.cfg
		if cfg == nil {
			cfg = buildCFG(n.decl.Body)
			n.summary.cfg = cfg
		}

		// Run 0: no parameter taint. Return masks become resultTaint.
		local := *hooks
		local.graph = g
		local.report = nil
		run0 := runTaint(&local, cfg, nil)
		n.summary.resultTaint = append([]taintMask(nil), run0.returnMask...)
		for i, m := range n.summary.resultTaint {
			n.summary.resultTaint[i] = m &^ taintParam
		}

		// Run 1: parameters marked. Marks reaching a return mean the
		// function propagates; marks reaching a sink mean callers with
		// tainted arguments are sinking.
		entry := make(taintState)
		markParams(g.pkg, n.decl, entry)
		var sinkDesc string
		var sinkAccepts taintMask
		sr := *hooks
		sr.graph = g
		sr.report = func(arg ast.Expr, mask, accepts taintMask, desc string) {
			if mask&taintParam != 0 && sinkDesc == "" {
				sinkDesc = desc
				sinkAccepts = accepts
			}
		}
		run1 := runTaint(&sr, cfg, entry)
		for _, m := range run1.returnMask {
			if m&taintParam != 0 {
				n.summary.propagates = true
			}
		}
		if sinkDesc != "" {
			n.summary.sinkDesc = sinkDesc
			n.summary.sinkAccepts = sinkAccepts
		}

		// seals: single-result functions whose only return paths are
		// sanitizer results come out with no resultTaint and no
		// propagation — calling them is already safe. A stronger
		// "seals" mark is only needed when the summary must override a
		// name-based source; detect the common `return Seal(...)` tail
		// shape.
		n.summary.seals = sealsDirectly(hooks, g.pkg, n.decl)
	}
}

// markParams seeds parameter objects (and the receiver) with the
// synthetic parameter mark. Scalar parameters (ints, bools, floats —
// anything with a basic underlying type except string) are skipped: a
// version byte or a length cannot carry key material, and marking them
// turns every helper that mixes a scalar into a buffer into a false
// propagator. Parameters whose types did not resolve stay marked —
// fixture packages with missing imports err on the side of flow.
func markParams(pkg *Package, fd *ast.FuncDecl, st taintState) {
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				obj := pkg.Info.Defs[name]
				if obj == nil {
					continue
				}
				if t := obj.Type(); t != nil {
					if b, isBasic := t.Underlying().(*types.Basic); isBasic && b.Info()&types.IsString == 0 && b.Kind() != types.Invalid {
						continue
					}
				}
				st[obj] = taintParam
			}
		}
	}
	add(fd.Recv)
	add(fd.Type.Params)
}

// sealsDirectly reports the `func f(...) { ...; return Seal(...) }`
// shape: every return statement's first result is a sanitizer call (or
// an error-path nil/err pair).
func sealsDirectly(hooks *taintHooks, pkg *Package, fd *ast.FuncDecl) bool {
	if hooks.sanitizer == nil {
		return false
	}
	sealed := false
	ok := true
	ast.Inspect(fd.Body, func(x ast.Node) bool {
		if _, isLit := x.(*ast.FuncLit); isLit {
			return false
		}
		ret, isRet := x.(*ast.ReturnStmt)
		if !isRet || len(ret.Results) == 0 {
			return true
		}
		first := ast.Unparen(ret.Results[0])
		if call, isCall := first.(*ast.CallExpr); isCall && hooks.sanitizer(call) {
			sealed = true
			return true
		}
		if id, isIdent := first.(*ast.Ident); isIdent && id.Name == "nil" {
			return true // error path
		}
		ok = false
		return true
	})
	return sealed && ok
}
