package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// DeadlineAnalyzer enforces SPEED's availability invariant on the
// Runtime-ResultStore path: a stalled or malicious peer must cost a
// bounded amount of time, never a wedged goroutine.
//
//   - Channel / net.Conn reads and writes must be lexically preceded by
//     a SetDeadline-family call in the same function, or the function
//     must bound the wait another way (time.NewTimer / time.After /
//     context.WithTimeout — the mux's kill-on-timeout pattern).
//   - Methods on a type that itself declares SetDeadline, or that
//     embeds a conn-like type, are exempt: such a type is a
//     deadline-capable wrapper and the deadline decision belongs to its
//     caller.
//   - Accept loops (Accept inside a for statement) must back off on
//     failure, otherwise a transient accept error spins the acceptor at
//     100% CPU. A delegating single Accept is a wrapper and is not
//     flagged.
//   - Bare net.Dial is rejected in favour of net.DialTimeout.
var DeadlineAnalyzer = &Analyzer{
	Name: "deadline",
	Doc:  "network I/O must carry a deadline and accept loops a backoff",
	Run:  runDeadline,
}

// deadlineIOMethods are the blocking I/O method names checked on
// conn-like receivers.
var deadlineIOMethods = map[string]bool{
	"Read": true, "Write": true,
	"Recv": true, "Send": true,
	"SendEnvelope": true, "SendEnvelopeTrace": true,
}

// deadlineTargetNames are the receiver type names treated as network
// endpoints. Matching is by type name, not import path, so both
// net.Conn and the module's wire.Channel (and test fixtures) qualify.
var deadlineTargetNames = map[string]bool{
	"Conn": true, "TCPConn": true, "UDPConn": true, "UnixConn": true,
	"Channel": true,
}

// listenerNames are the receiver type names whose Accept is checked.
var listenerNames = map[string]bool{
	"Listener": true, "TCPListener": true, "UnixListener": true,
}

func runDeadline(pass *Pass) {
	pkg := pass.Pkg
	wrappers := deadlineWrapperTypes(pkg)
	forEachFunc(pkg, func(_ *ast.File, fd *ast.FuncDecl) {
		if rt := recvTypeName(fd); rt != "" && wrappers[rt] {
			// A method of a deadline-capable wrapper: its caller sets
			// the deadline through the wrapper's own SetDeadline.
			return
		}
		checkDeadlineFunc(pass, fd)
	})
}

// deadlineWrapperTypes collects the package's conn-wrapper type names:
// types that declare a SetDeadline-family method, or struct types that
// embed a conn-like or listener-like type (a wrapper delegating I/O,
// and with it the deadline decision, to its embedded endpoint).
func deadlineWrapperTypes(pkg *Package) map[string]bool {
	out := make(map[string]bool)
	forEachFunc(pkg, func(_ *ast.File, fd *ast.FuncDecl) {
		if fd.Recv != nil && isDeadlineSetter(fd.Name.Name) {
			if rt := recvTypeName(fd); rt != "" {
				out[rt] = true
			}
		}
	})
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					if len(field.Names) != 0 {
						continue // named field, not embedded
					}
					name := embeddedTypeName(field.Type)
					if deadlineTargetNames[name] || listenerNames[name] {
						out[ts.Name.Name] = true
					}
				}
			}
		}
	}
	return out
}

// embeddedTypeName returns the bare type name of an embedded field
// (Conn for net.Conn, *net.TCPConn, etc.).
func embeddedTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.StarExpr:
		return embeddedTypeName(e.X)
	}
	return ""
}

func isDeadlineSetter(name string) bool {
	return name == "SetDeadline" || name == "SetReadDeadline" || name == "SetWriteDeadline"
}

func checkDeadlineFunc(pass *Pass, fd *ast.FuncDecl) {
	pkg := pass.Pkg

	// Gather the function's guards: SetDeadline call positions (a guard
	// covers I/O lexically after it) and function-scoped timer bounds.
	var guards []token.Pos
	timerScoped := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isDeadlineSetter(sel.Sel.Name) {
			guards = append(guards, call.Pos())
		}
		if isPkgFunc(pkg, call, "time", "NewTimer") ||
			isPkgFunc(pkg, call, "time", "After") ||
			isPkgFunc(pkg, call, "time", "AfterFunc") ||
			isPkgFunc(pkg, call, "context", "WithTimeout") ||
			isPkgFunc(pkg, call, "context", "WithDeadline") {
			timerScoped = true
		}
		return true
	})
	guarded := func(pos token.Pos) bool {
		if timerScoped {
			return true
		}
		for _, g := range guards {
			if g < pos {
				return true
			}
		}
		return false
	}

	// Record for-statement extents: Accept is only an "accept loop"
	// when called inside one.
	type span struct{ lo, hi token.Pos }
	var loops []span
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if fs, ok := n.(*ast.ForStmt); ok {
			loops = append(loops, span{fs.Pos(), fs.End()})
		}
		return true
	})
	inLoop := func(pos token.Pos) bool {
		for _, l := range loops {
			if l.lo <= pos && pos < l.hi {
				return true
			}
		}
		return false
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isPkgFunc(pkg, call, "net", "Dial") {
			pass.Reportf(call.Pos(), "net.Dial has no connect timeout; use net.DialTimeout or a net.Dialer with Timeout")
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		if name == "Accept" && isConnLike(pkg, sel.X, listenerNames) {
			if inLoop(call.Pos()) && !referencesBackoffRelief(pkg, fd) {
				pass.Reportf(call.Pos(), "accept loop has no backoff; a transient accept error spins this goroutine at full speed")
			}
			return true
		}
		if deadlineIOMethods[name] && isConnLike(pkg, sel.X, deadlineTargetNames) && !guarded(call.Pos()) {
			pass.Reportf(call.Pos(), "%s.%s has no preceding SetDeadline and no timer bound; a stalled peer blocks this path forever",
				exprText(sel.X), name)
		}
		return true
	})
}

// isConnLike reports whether e's named type is in the given name set.
func isConnLike(pkg *Package, e ast.Expr, names map[string]bool) bool {
	n := namedTypeOf(pkg, e)
	return n != nil && n.Obj() != nil && names[n.Obj().Name()]
}

// referencesBackoffRelief reports whether the function consults a
// backoff (an identifier mentioning backoff, or a sleep call) anywhere
// in its body.
func referencesBackoffRelief(pkg *Package, fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if strings.Contains(strings.ToLower(n.Name), "backoff") {
				found = true
			}
		case *ast.CallExpr:
			if isPkgFunc(pkg, n, "time", "Sleep") {
				found = true
			}
			if _, name := calleeParts(n); strings.Contains(strings.ToLower(name), "sleep") {
				found = true
			}
		}
		return !found
	})
	return found
}
