// Package lint is SPEED's in-tree static-analysis suite. It
// machine-checks the invariants the paper's security argument rests on
// but the Go compiler cannot see: plaintext and key material must never
// cross the enclave boundary unsealed (enclaveboundary), key-derivation
// buffers must be zeroized and never logged (keyzero), fields accessed
// atomically must be accessed atomically everywhere (atomicmix), every
// network operation on the Runtime-ResultStore path must carry a
// deadline and every accept loop a backoff (deadline), and the wire
// protocol's marshal and unmarshal sides must agree (wiresym).
// Properties of the bytes a process emits are tests, not lint rules:
// the log engine's crash model checks durability ordering
// (TestCrashModel), plaintext canaries over disk, socket and log check
// that nothing leaves unsealed (TestNoPlaintextAtSinks), and each
// service package's TestMain checks that no goroutine outlives its
// tests.
//
// The driver is deliberately dependency-free — stdlib go/parser and
// go/types only, no golang.org/x/tools — so offline builds keep
// working. The cost is that analyzers implement their own small AST
// walks instead of the x/tools analysis framework; the benefit is that
// `make lint` needs nothing beyond the toolchain.
//
// Findings can be suppressed with a directive comment on the same line
// or the line directly above:
//
//	//speedlint:ignore <analyzer> <reason>
//
// and a package is marked enclave-trusted (subject to the
// enclaveboundary import rules) by
//
//	//speedlint:trusted
//
// anywhere in its files.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	// File is the path of the offending file, relative to the working
	// directory when possible.
	File string `json:"file"`
	// Line is the 1-based line of the finding.
	Line int `json:"line"`
	// Col is the 1-based column of the finding.
	Col int `json:"col"`
	// Analyzer names the analyzer that produced the finding.
	Analyzer string `json:"analyzer"`
	// Message describes the violated invariant.
	Message string `json:"message"`
}

// String renders the canonical "file:line: [analyzer] message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.File, d.Line, d.Analyzer, d.Message)
}

// JSON renders the finding as a single JSON line (no trailing newline),
// the -json output mode consumed by CI annotations and the bench
// harness.
func (d Diagnostic) JSON() string {
	b, err := json.Marshal(d)
	if err != nil {
		// Diagnostic is a flat struct of strings and ints; Marshal
		// cannot fail on it.
		panic(fmt.Sprintf("lint: marshal diagnostic: %v", err))
	}
	return string(b)
}

// Package is one loaded, parsed and (tolerantly) type-checked package.
type Package struct {
	// Path is the package import path.
	Path string
	// Dir is the directory the package was loaded from.
	Dir string
	// Fset is the file set all position info resolves through.
	Fset *token.FileSet
	// Files are the parsed non-test source files.
	Files []*ast.File
	// Types is the type-checked package object. Never nil after a
	// successful load, but possibly incomplete when type errors were
	// tolerated.
	Types *types.Package
	// Info holds the type-checker's resolution results. Analyzers must
	// tolerate missing entries (type errors leave holes).
	Info *types.Info
	// TypeErrors are the type-checking errors that were tolerated.
	TypeErrors []error

	// trustDirective records a //speedlint:trusted directive.
	trustDirective bool
	// ignores maps file -> line -> analyzer names suppressed on that
	// line (an empty set suppresses every analyzer).
	ignores map[string]map[int]map[string]bool
}

// TrustDirective reports whether any file of the package carries a
// //speedlint:trusted directive.
func (p *Package) TrustDirective() bool { return p.trustDirective }

// scanDirectives indexes the package's //speedlint: comments.
func (p *Package) scanDirectives() {
	p.ignores = make(map[string]map[int]map[string]bool)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "speedlint:") {
					continue
				}
				directive := strings.TrimPrefix(text, "speedlint:")
				switch {
				case directive == "trusted" || strings.HasPrefix(directive, "trusted "):
					p.trustDirective = true
				case strings.HasPrefix(directive, "ignore"):
					args := strings.Fields(strings.TrimPrefix(directive, "ignore"))
					pos := p.Fset.Position(c.Pos())
					byLine := p.ignores[pos.Filename]
					if byLine == nil {
						byLine = make(map[int]map[string]bool)
						p.ignores[pos.Filename] = byLine
					}
					set := make(map[string]bool)
					if len(args) > 0 {
						// First token is the analyzer name; the rest is
						// the human reason.
						set[args[0]] = true
					}
					// The directive suppresses findings on its own line
					// and on the line below (for standalone comments).
					byLine[pos.Line] = set
					byLine[pos.Line+1] = set
				}
			}
		}
	}
}

// suppressed reports whether a finding by analyzer at pos is covered by
// an ignore directive.
func (p *Package) suppressed(analyzer string, pos token.Position) bool {
	byLine, ok := p.ignores[pos.Filename]
	if !ok {
		return false
	}
	set, ok := byLine[pos.Line]
	if !ok {
		return false
	}
	return len(set) == 0 || set[analyzer]
}

// Config parameterises a suite run.
type Config struct {
	// TrustedPackages lists import path prefixes treated as
	// enclave-trusted in addition to packages carrying the
	// //speedlint:trusted directive.
	TrustedPackages []string
}

// DefaultConfig is the policy for this repository: the MLE crypto core
// and the enclave simulator are the trusted computing base.
func DefaultConfig() *Config {
	return &Config{
		TrustedPackages: []string{
			"speed/internal/mle",
			"speed/internal/enclave",
		},
	}
}

// Trusted reports whether pkg is enclave-trusted under the config.
func (c *Config) Trusted(pkg *Package) bool {
	if pkg.TrustDirective() {
		return true
	}
	for _, prefix := range c.TrustedPackages {
		if pkg.Path == prefix || strings.HasPrefix(pkg.Path, prefix+"/") {
			return true
		}
	}
	return false
}

// Pass is one analyzer's view of one package.
type Pass struct {
	// Pkg is the package under analysis.
	Pkg *Package
	// Config is the suite configuration.
	Config *Config

	analyzer string
	diags    *[]Diagnostic
}

// Reportf records a finding at pos unless suppressed by a directive.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if p.Pkg.suppressed(p.analyzer, position) {
		return
	}
	file := position.Filename
	if rel, err := filepath.Rel(".", file); err == nil && !strings.HasPrefix(rel, "..") {
		file = rel
	}
	*p.diags = append(*p.diags, Diagnostic{
		File:     file,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one SPEED invariant checker.
type Analyzer struct {
	// Name labels findings ("[name]") and is the key ignore directives
	// match against.
	Name string
	// Doc is the one-line description shown by speedlint -list.
	Doc string
	// Run analyzes one package, reporting findings through the pass.
	Run func(*Pass)
}

// Analyzers returns the full suite in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		EnclaveBoundaryAnalyzer,
		KeyZeroAnalyzer,
		AtomicMixAnalyzer,
		DeadlineAnalyzer,
		WireSymAnalyzer,
	}
}

// Run executes the analyzers over the packages, returning findings
// sorted by file, line and analyzer. A nil config selects
// DefaultConfig; nil analyzers selects the full suite.
func Run(pkgs []*Package, cfg *Config, analyzers []*Analyzer) []Diagnostic {
	if cfg == nil {
		cfg = DefaultConfig()
	}
	if analyzers == nil {
		analyzers = Analyzers()
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Pkg: pkg, Config: cfg, analyzer: a.Name, diags: &diags}
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].File != diags[j].File {
			return diags[i].File < diags[j].File
		}
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
	return diags
}
