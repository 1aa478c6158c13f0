package lint_test

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestTCBImports pins the trust boundary SPEED draws around its trusted
// computing base, the MLE crypto core and the enclave simulator: they
// compute, and never reach the network, the host OS or the wire layer
// themselves, so a leak needs code outside the boundary to cooperate.
// Only direct imports count: crypto/rand and crypto/x509 already pull
// net and os in transitively.
func TestTCBImports(t *testing.T) {
	for _, pkg := range []string{"mle", "enclave"} {
		bp, err := build.ImportDir(filepath.Join("..", pkg), 0)
		if err != nil {
			t.Fatalf("internal/%s: %v", pkg, err)
		}
		for _, imp := range bp.Imports {
			root, _, _ := strings.Cut(imp, "/")
			if root == "net" || root == "os" || root == "syscall" || imp == "speed/internal/wire" {
				t.Errorf("internal/%s imports %s: the enclave TCB must not reach the network, the host OS or the wire layer", pkg, imp)
			}
		}
	}
}
