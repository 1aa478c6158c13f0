package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// KeyZero enforces the key-hygiene half of SPEED's security
// argument: derived key material must not outlive the operation that
// needed it, and must never reach a formatting or logging sink.
//
// Rule 1 (zeroize): a byte buffer assigned from a key-producing call
// (KeyGen, KeyRec, secondaryKey, ECDH, hkdf, deriveKey, GenerateKey)
// must be zeroized on every return path. The analyzer accepts the
// defer idiom —
//
//	key, err := kdf(...)
//	defer Zeroize(key)
//
// (any callee whose name contains "zeroize", deferred or direct, with
// the buffer as argument) — because defer covers every return path
// including panics. A buffer whose ownership leaves the function
// (returned, stored in a struct or composite literal, captured by a
// closure, sent on a channel) is the new owner's responsibility and is
// not reported.
//
// Rule 2 (sinks): an argument that names key material and has a byte-
// buffer type must never be passed to fmt/log formatting functions or
// Trace-style telemetry sinks; a hex-dumped key in an error string
// survives in logs far longer than the enclave's memory encryption
// protects it.
//
// Findings come back in source order, function by function.
func KeyZero(pkg *Package) []Diagnostic {
	kz := &keyZero{pkg: pkg}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				kz.checkZeroize(fd)
				kz.checkSinks(fd)
			}
		}
	}
	return kz.diags
}

// keyZero collects one package's findings.
type keyZero struct {
	pkg   *Package
	diags []Diagnostic
}

func (kz *keyZero) reportf(pos token.Pos, format string, args ...any) {
	kz.diags = append(kz.diags, Diagnostic{Pos: kz.pkg.Fset.Position(pos), Message: fmt.Sprintf(format, args...)})
}

// keyProducers are the callee names whose byte-buffer results are key
// material.
var keyProducers = map[string]bool{
	"KeyGen": true, "KeyRec": true, "GenerateKey": true,
	"secondaryKey": true, "hkdf": true, "hkdfKey": true, "ECDH": true,
	"deriveKey": true, "DeriveKey": true,
}

// sinkMethods are formatting/telemetry method names that count as
// logging sinks regardless of receiver.
var sinkMethods = map[string]bool{
	"Trace": true, "Tracef": true,
	"Logf": true, "Printf": true, "Errorf": true, "Infof": true,
	"Debugf": true, "Warnf": true,
}

// trackedKey is one key buffer produced inside the function.
type trackedKey struct {
	ident *ast.Ident
	obj   types.Object
	from  string // producing callee name, for the diagnostic
}

// checkZeroize applies rule 1 to one function.
func (kz *keyZero) checkZeroize(fd *ast.FuncDecl) {
	pkg := kz.pkg

	// Step 1: key buffers assigned from producing calls.
	var tracked []trackedKey
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
		if !ok {
			// key := producer(...)[:16] — a reslice of a producer's
			// result is reported outright: a later Zeroize(key) clears
			// only the truncated window, leaving the rest of the
			// derived block live in the unreachable backing array.
			if sl, ok := ast.Unparen(assign.Rhs[0]).(*ast.SliceExpr); ok {
				if call, ok := ast.Unparen(sl.X).(*ast.CallExpr); ok {
					if callee := calleeName(call); keyProducers[callee] {
						kz.reportf(sl.Pos(), "truncated slice of key material from %s: Zeroize on the short slice cannot clear the remaining derived bytes; derive into a full-size buffer and zeroize all of it", callee)
					}
				}
			}
			return true
		}
		callee := calleeName(call)
		if !keyProducers[callee] {
			return true
		}
		for _, lhs := range assign.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := pkg.Info.Defs[id]
			if obj == nil {
				obj = pkg.Info.Uses[id]
			}
			if obj == nil || !isByteBuffer(obj.Type()) {
				continue
			}
			// Wrapped keys, tags, public halves etc. are not secrets.
			if allowlistedName(id.Name) {
				continue
			}
			tracked = append(tracked, trackedKey{ident: id, obj: obj, from: callee})
		}
		return true
	})
	if len(tracked) == 0 {
		return
	}

	for _, tk := range tracked {
		if keyEscapes(pkg, fd, tk) {
			continue
		}
		if keyZeroized(pkg, fd, tk.obj) {
			continue
		}
		kz.reportf(tk.ident.Pos(), "%s holds key material from %s but is not zeroized on all return paths; add `defer Zeroize(%s)` right after the assignment",
			tk.ident.Name, tk.from, zeroizeArgFor(tk))
	}
}

// allowlistedName reports whether a name fragment marks the buffer as
// non-secret (wrapped keys are ciphertext, public keys and tags are
// not secrets).
func allowlistedName(name string) bool {
	l := strings.ToLower(name)
	for _, a := range secretAllow {
		if strings.Contains(l, a) {
			return true
		}
	}
	return false
}

// zeroizeArgFor renders the suggested Zeroize argument: arrays need a
// full slice.
func zeroizeArgFor(tk trackedKey) string {
	if t := tk.obj.Type(); t != nil {
		if _, isArray := t.Underlying().(*types.Array); isArray {
			return tk.ident.Name + "[:]"
		}
	}
	return tk.ident.Name
}

// keyEscapes reports whether the tracked buffer's ownership leaves the
// function: returned, aliased into another binding, stored in a
// composite literal, captured by a closure, or sent on a channel. Call
// arguments do not transfer ownership (the callee borrows), and element
// reads (k[i]) are not aliases.
func keyEscapes(pkg *Package, fd *ast.FuncDecl, tk trackedKey) bool {
	escaped := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if escaped {
			return false
		}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if aliasesObj(pkg, r, tk.obj) {
					escaped = true
				}
			}
		case *ast.AssignStmt:
			for _, r := range n.Rhs {
				// The producing assignment itself defines the buffer;
				// any other assignment whose RHS aliases it re-homes it.
				if call, ok := ast.Unparen(r).(*ast.CallExpr); ok {
					if callee := calleeName(call); keyProducers[callee] {
						continue
					}
				}
				if aliasesObj(pkg, r, tk.obj) {
					escaped = true
				}
			}
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if aliasesObj(pkg, e, tk.obj) {
					escaped = true
				}
			}
		case *ast.SendStmt:
			if aliasesObj(pkg, n.Value, tk.obj) {
				escaped = true
			}
		case *ast.FuncLit:
			// A closure capturing the buffer may stash it anywhere.
			ast.Inspect(n.Body, func(inner ast.Node) bool {
				if id, ok := inner.(*ast.Ident); ok && pkg.Info.Uses[id] == tk.obj {
					escaped = true
				}
				return !escaped
			})
			return false
		}
		return !escaped
	})
	return escaped
}

// aliasesObj reports whether e evaluates to the whole buffer obj (the
// identifier itself, a reslice, or its address) — the shapes that alias
// the backing array. An element read k[i] is not an alias.
func aliasesObj(pkg *Package, e ast.Expr, obj types.Object) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return pkg.Info.Uses[e] == obj
	case *ast.SliceExpr:
		return aliasesObj(pkg, e.X, obj)
	case *ast.UnaryExpr:
		return aliasesObj(pkg, e.X, obj)
	case *ast.StarExpr:
		return aliasesObj(pkg, e.X, obj)
	}
	return false
}

// keyZeroized reports whether the function zeroizes the buffer: a call
// (deferred or direct, possibly inside a deferred closure) to a callee
// whose name contains "zeroize" with the buffer as an argument.
func keyZeroized(pkg *Package, fd *ast.FuncDecl, obj types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeName(call)
		if !strings.Contains(strings.ToLower(callee), "zeroize") {
			return true
		}
		for _, a := range call.Args {
			if aliasesObj(pkg, a, obj) {
				found = true
			}
		}
		return !found
	})
	return found
}

// checkSinks applies rule 2 to one function: secret byte buffers must
// not reach formatting or telemetry sinks.
func (kz *keyZero) checkSinks(fd *ast.FuncDecl) {
	pkg := kz.pkg
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !isLoggingSink(pkg, call) {
			return true
		}
		for _, a := range call.Args {
			if name, ok := isSecretExpr(pkg, a); ok {
				callee := calleeName(call)
				kz.reportf(a.Pos(), "key material %s is passed to %s; keys must never reach logs or error strings", name, callee)
			}
		}
		return true
	})
}

// isLoggingSink recognises fmt and log package functions plus
// Trace/printf-style methods on any receiver.
func isLoggingSink(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if path := pkgPathOf(pkg, sel.X); path == "fmt" || path == "log" || path == "log/slog" {
		return true
	}
	return sinkMethods[sel.Sel.Name]
}

// calleeName is a call's final callee name: fmt.Errorf -> "Errorf",
// Errorf -> "Errorf", a.b.C() -> "C".
func calleeName(call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// pkgPathOf resolves the import path of a package qualifier identifier
// (e.g. the "fmt" in fmt.Errorf), or "" when the identifier is not a
// package name.
func pkgPathOf(pkg *Package, e ast.Expr) string {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return ""
	}
	if obj, ok := pkg.Info.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn.Imported().Path()
		}
	}
	return ""
}

// isByteBuffer reports whether t is []byte, [N]byte, or a pointer to
// either — the shapes key material lives in.
func isByteBuffer(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return isByte(u.Elem())
	case *types.Array:
		return isByte(u.Elem())
	case *types.Pointer:
		return isByteBuffer(u.Elem())
	}
	return false
}

func isByte(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8)
}

// identRootsOf collects the base identifiers referenced by an argument
// expression, looking through slicing, indexing, address-of and
// selector chains: key, key[:16], &key, s.key all root at an
// identifier. Calls are deliberately not traversed: len(key) does not
// leak key.
func identRootsOf(e ast.Expr, out *[]*ast.Ident) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		*out = append(*out, e)
	case *ast.SelectorExpr:
		// For s.key the interesting name is the field; record the
		// selector identifier itself.
		*out = append(*out, e.Sel)
	case *ast.SliceExpr:
		identRootsOf(e.X, out)
	case *ast.IndexExpr:
		identRootsOf(e.X, out)
	case *ast.UnaryExpr:
		identRootsOf(e.X, out)
	case *ast.StarExpr:
		identRootsOf(e.X, out)
	}
}

// secretAllow are name fragments that defuse the secret heuristic:
// wrapped keys are ciphertext, public keys and sizes are not secrets.
var secretAllow = []string{"wrapped", "public", "pub", "size", "len", "id", "name", "kind", "hash", "tag"}

// secretFragments mark a name as key material.
var secretFragments = []string{"key", "plaintext", "secret", "seed", "passphrase", "password", "shared"}

// isSecretName applies SPEED's naming convention for key material.
func isSecretName(name string) bool {
	if allowlistedName(name) {
		return false
	}
	l := strings.ToLower(name)
	for _, s := range secretFragments {
		if strings.Contains(l, s) {
			return true
		}
	}
	return false
}

// isSecretExpr reports whether e roots at an identifier that names key
// material AND has a byte-buffer type (the type gate kills map-key /
// label-string false positives).
func isSecretExpr(pkg *Package, e ast.Expr) (string, bool) {
	var roots []*ast.Ident
	identRootsOf(e, &roots)
	for _, id := range roots {
		if !isSecretName(id.Name) {
			continue
		}
		obj := pkg.Info.Uses[id]
		if obj == nil {
			obj = pkg.Info.Defs[id]
		}
		if obj != nil && obj.Type() != nil {
			if !isByteBuffer(obj.Type()) {
				continue
			}
		}
		return id.Name, true
	}
	return "", false
}
