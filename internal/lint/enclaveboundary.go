package lint

import (
	"go/ast"
	"strconv"
	"strings"
)

// EnclaveBoundaryAnalyzer machine-checks the trust boundary the SPEED
// deployment model draws around the MLE crypto core and the enclave
// simulator:
//
//   - Rule A (trusted imports): a trusted package — one listed in
//     Config.TrustedPackages or carrying a //speedlint:trusted
//     directive — must not import the untrusted I/O layer: net, os,
//     syscall, os/exec, or the wire package. The TCB computes; it does
//     not talk to the outside world directly, so a leak requires code
//     outside the boundary to cooperate.
//   - Rule B (ECALL surface): the attestation primitives
//     (enclave.VerifyQuote, UnmarshalQuote, UnmarshalReport, and
//     friends) may be called only from the wire handshake (or the
//     enclave package itself), and the sealing primitives
//     (Enclave.Seal/Unseal) only from the store layer (package store
//     and its storage engines, e.g. logengine) — the places the design
//     documents as the boundary's legitimate crossings.
//
// Rules match package and type NAMES (not full import paths) so the
// same checks run against the production tree and the test fixtures.
var EnclaveBoundaryAnalyzer = &Analyzer{
	Name: "enclaveboundary",
	Doc:  "trusted packages must not touch untrusted I/O; enclave primitives only cross at documented points",
	Run:  runEnclaveBoundary,
}

// attestationFuncs is the enclave package's attestation surface,
// callable only from the wire handshake.
var attestationFuncs = map[string]bool{
	"VerifyQuote": true, "VerifyReport": true,
	"UnmarshalQuote": true, "UnmarshalReport": true,
	"Quote": true, "Report": true,
}

func runEnclaveBoundary(pass *Pass) {
	if pass.Config.Trusted(pass.Pkg) {
		checkTrustedImports(pass)
	}
	checkECallSurface(pass)
}

// checkTrustedImports applies rule A to a trusted package.
func checkTrustedImports(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if why := bannedInTrusted(path); why != "" {
				pass.Reportf(imp.Pos(), "trusted package %s imports %s; the enclave TCB must not reach the %s", pass.Pkg.Path, path, why)
			}
		}
	}
}

// bannedInTrusted classifies an import path forbidden inside the TCB,
// returning a short reason or "".
func bannedInTrusted(path string) string {
	switch {
	case path == "net" || strings.HasPrefix(path, "net/"):
		return "network"
	case path == "os" || strings.HasPrefix(path, "os/"):
		return "host OS"
	case path == "syscall" || strings.HasPrefix(path, "syscall/"):
		return "host OS"
	case path == "wire" || strings.HasSuffix(path, "/wire"):
		return "untrusted wire layer"
	}
	return ""
}

// checkECallSurface applies rule B to packages other than the
// documented callers.
func checkECallSurface(pass *Pass) {
	pkg := pass.Pkg
	caller := pkg.Types.Name()
	forEachFunc(pkg, func(_ *ast.File, fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			// Attestation package functions: wire-only.
			if attestationFuncs[name] && isEnclaveQualifier(pkg, sel.X) {
				if caller != "wire" && caller != "enclave" {
					pass.Reportf(call.Pos(), "attestation primitive enclave.%s called from package %s; attestation is verified only inside the wire handshake", name, caller)
				}
				return true
			}
			// Sealing methods on an Enclave value: the store layer only
			// (the store itself and its storage engines).
			if (name == "Seal" || name == "Unseal") && typeIs(pkg, sel.X, "enclave", "Enclave") {
				if caller != "store" && caller != "logengine" && caller != "enclave" {
					pass.Reportf(call.Pos(), "sealing primitive Enclave.%s called from package %s; sealed storage is owned by the store layer", name, caller)
				}
			}
			return true
		})
	})
}

// isEnclaveQualifier reports whether e is a package qualifier naming
// the enclave package (resolved through type info, with a name
// fallback).
func isEnclaveQualifier(pkg *Package, e ast.Expr) bool {
	if path := pkgPathOf(pkg, e); path != "" {
		return path == "enclave" || strings.HasSuffix(path, "/enclave")
	}
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "enclave"
}
