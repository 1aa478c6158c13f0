package lint_test

import (
	"os"
	"path"
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

// loadFixture loads the named fixture packages (relative to
// testdata/src/<fixture>) under the synthetic "fix" import-path root.
func loadFixture(t *testing.T, fixture string, pkgrels []string) []*lint.Package {
	t.Helper()
	srcRoot, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	loader.ExtraRoots = map[string]string{"fix": srcRoot}
	var pkgs []*lint.Package
	for _, rel := range pkgrels {
		dir := filepath.Join(srcRoot, fixture, filepath.FromSlash(rel))
		pkg, err := loader.LoadDir(dir, path.Join("fix", fixture, rel))
		if err != nil {
			t.Fatalf("load %s: %v", dir, err)
		}
		if pkg == nil {
			t.Fatalf("no package loaded from %s", dir)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}

// collectWants indexes the want comments of every fixture file.
func collectWants(t *testing.T, pkgs []*lint.Package) []*wantEntry {
	t.Helper()
	var wants []*wantEntry
	for _, pkg := range pkgs {
		entries, err := os.ReadDir(pkg.Dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			file := filepath.Join(pkg.Dir, e.Name())
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			for i, lineText := range strings.Split(string(data), "\n") {
				for _, m := range wantRe.FindAllStringSubmatch(lineText, -1) {
					wants = append(wants, &wantEntry{
						file: file,
						line: i + 1,
						re:   regexp.MustCompile(m[1]),
					})
				}
			}
		}
	}
	return wants
}

// runFixtureTest runs one analyzer over a fixture tree and checks its
// findings against the want comments: every finding must be expected,
// and every expectation must fire.
func runFixtureTest(t *testing.T, a *lint.Analyzer, fixture string, pkgrels []string) {
	t.Helper()
	pkgs := loadFixture(t, fixture, pkgrels)
	wants := collectWants(t, pkgs)
	diags := lint.Run(pkgs, nil, []*lint.Analyzer{a})
	for _, d := range diags {
		abs, err := filepath.Abs(d.File)
		if err != nil {
			t.Fatal(err)
		}
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == abs && w.line == d.Line && w.re.MatchString(d.Message) {
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

func TestKeyZero(t *testing.T) {
	runFixtureTest(t, lint.KeyZeroAnalyzer, "keyzero", []string{"a"})
}

func TestAtomicMix(t *testing.T) {
	runFixtureTest(t, lint.AtomicMixAnalyzer, "atomicmix", []string{"a"})
}

func TestDeadline(t *testing.T) {
	runFixtureTest(t, lint.DeadlineAnalyzer, "deadline", []string{"a"})
}

func TestWireSym(t *testing.T) {
	runFixtureTest(t, lint.WireSymAnalyzer, "wiresym", []string{"wire"})
}

func TestEnclaveBoundary(t *testing.T) {
	runFixtureTest(t, lint.EnclaveBoundaryAnalyzer, "enclaveboundary",
		[]string{"tcb", "enclave", "outside", "wire"})
}

// TestFullSuiteOnFixtures runs every analyzer together over every
// fixture tree (each filtered to its own analyzer via want comments is
// not possible here, so this only asserts the suite does not panic and
// produces deterministic, sorted output).
func TestFullSuiteOnFixtures(t *testing.T) {
	pkgs := loadFixture(t, "keyzero", []string{"a"})
	first := lint.Run(pkgs, nil, nil)
	second := lint.Run(pkgs, nil, nil)
	if len(first) != len(second) {
		t.Fatalf("non-deterministic run: %d vs %d findings", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("non-deterministic finding order at %d: %v vs %v", i, first[i], second[i])
		}
	}
	for i := 1; i < len(first); i++ {
		a, b := first[i-1], first[i]
		if a.File > b.File || (a.File == b.File && a.Line > b.Line) {
			t.Fatalf("findings not sorted: %v before %v", a, b)
		}
	}
}

// TestIgnoreDirective verifies //speedlint:ignore suppresses a finding
// on the following line.
func TestIgnoreDirective(t *testing.T) {
	pkgs := loadFixture(t, "directive", []string{"a"})
	diags := lint.Run(pkgs, nil, []*lint.Analyzer{lint.AtomicMixAnalyzer})
	for _, d := range diags {
		t.Errorf("finding should have been suppressed by directive: %s", d)
	}
}

func TestTrustedConfig(t *testing.T) {
	cfg := lint.DefaultConfig()
	for _, tc := range []struct {
		path string
		want bool
	}{
		{"speed/internal/mle", true},
		{"speed/internal/enclave", true},
		{"speed/internal/enclave/sub", true},
		{"speed/internal/wire", false},
		{"speed/internal/mlefoo", false},
	} {
		pkg := &lint.Package{Path: tc.path}
		if got := cfg.Trusted(pkg); got != tc.want {
			t.Errorf("Trusted(%s) = %v, want %v", tc.path, got, tc.want)
		}
	}
}
