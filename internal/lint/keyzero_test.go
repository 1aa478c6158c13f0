package lint_test

import (
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"speed/internal/lint"
)

// wantRe extracts `// want `regex“ expectation comments from fixture
// sources.
var wantRe = regexp.MustCompile("//\\s*want `([^`]+)`")

type wantEntry struct {
	file string // absolute path
	line int
	re   *regexp.Regexp
	hit  bool
}

// TestKeyZero runs keyzero over its fixture package and checks its
// findings against the fixture's want comments: every finding must be
// expected, and every expectation must fire.
func TestKeyZero(t *testing.T) {
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "keyzero", "a"))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir, "fix/keyzero/a")
	if err != nil || pkg == nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	wants := collectWants(t, pkg.Dir)
	for _, d := range lint.KeyZero(pkg) {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// collectWants indexes the want comments of every file in dir.
func collectWants(t *testing.T, dir string) []*wantEntry {
	t.Helper()
	var wants []*wantEntry
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		file := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, lineText := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(lineText, -1) {
				wants = append(wants, &wantEntry{file: file, line: i + 1, re: regexp.MustCompile(m[1])})
			}
		}
	}
	return wants
}

// TestModuleKeyZero runs keyzero over every package of the module, so
// `go test ./...` fails on a derived key left unzeroized or logged, or
// on a package the loader cannot type-check.
func TestModuleKeyZero(t *testing.T) {
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, d := range lint.KeyZero(pkg) {
			t.Error(d)
		}
	}
}

func TestDiagnosticString(t *testing.T) {
	d := lint.Diagnostic{
		Pos:     token.Position{Filename: "internal/mle/ops.go", Line: 36, Column: 2},
		Message: "h holds key material",
	}
	want := "internal/mle/ops.go:36:2: h holds key material"
	if got := d.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
