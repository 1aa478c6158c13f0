// Package lint holds keyzero, SPEED's one static check: derived key
// material (RCE's per-result key k, the wrap input H(func, m, r), the
// channel's ECDH shared secret and HKDF output) must be zeroized on
// every return path of the function that derived it, and must never
// reach a formatting or logging sink. No test can observe a key that
// outlives its operation in memory, so this property is checked on the
// source instead. TestModuleKeyZero runs it over every package of the
// module as part of `go test ./...`.
//
// Every other invariant is pinned by a test where its effect shows;
// DESIGN.md "Static analysis" maps each retired analyzer to its test.
//
// The loader is stdlib-only — go/parser and go/types, no
// golang.org/x/tools — so offline builds keep working.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Diagnostic is one keyzero finding.
type Diagnostic struct {
	// Pos is where the finding is.
	Pos token.Position
	// Message describes the violated invariant.
	Message string
}

// String renders the canonical "file:line:col: message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s", d.Pos, d.Message)
}

// Package is one loaded, parsed and type-checked package.
type Package struct {
	// Path is the package import path.
	Path string
	// Dir is the directory the package was loaded from.
	Dir string
	// Fset is the file set all position info resolves through.
	Fset *token.FileSet
	// Files are the parsed non-test source files.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info holds the type-checker's resolution results.
	Info *types.Info
}
