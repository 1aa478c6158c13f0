package chunk

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math/rand"
	"testing"

	"speed/internal/mle"
	"speed/internal/wire"
)

func testChunker(t testing.TB) *Chunker {
	t.Helper()
	c, err := NewChunker(Config{})
	if err != nil {
		t.Fatalf("NewChunker: %v", err)
	}
	return c
}

// deterministic test data: a fixed-seed PRNG so boundaries (and thus
// every assertion about them) are stable across runs and machines.
func testData(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	r.Read(b)
	return b
}

func TestSplitInvariants(t *testing.T) {
	c := testChunker(t)
	for _, n := range []int{0, 1, 100, DefaultMin, DefaultMin + 1, DefaultAvg, 100 << 10, 1 << 20} {
		data := testData(int64(n)+1, n)
		chunks := c.Split(data)
		var cat []byte
		for i, ch := range chunks {
			cat = append(cat, ch...)
			if len(ch) > DefaultMax {
				t.Fatalf("n=%d: chunk %d is %d bytes, above Max %d", n, i, len(ch), DefaultMax)
			}
			if i < len(chunks)-1 && len(ch) < DefaultMin {
				t.Fatalf("n=%d: non-final chunk %d is %d bytes, below Min %d", n, i, len(ch), DefaultMin)
			}
		}
		if !bytes.Equal(cat, data) {
			t.Fatalf("n=%d: concatenated chunks differ from input", n)
		}
	}
}

// TestSplitDeterministic pins that the same config yields the same
// boundaries across chunker instances — the convergence prerequisite.
func TestSplitDeterministic(t *testing.T) {
	a := testChunker(t)
	b := testChunker(t)
	data := testData(7, 256<<10)
	ca, cb := a.Split(data), b.Split(data)
	if len(ca) != len(cb) {
		t.Fatalf("chunk counts differ: %d vs %d", len(ca), len(cb))
	}
	for i := range ca {
		if !bytes.Equal(ca[i], cb[i]) {
			t.Fatalf("chunk %d differs between instances", i)
		}
	}
	if len(ca) < 2 {
		t.Fatalf("expected multiple chunks for 256KiB, got %d", len(ca))
	}
}

// TestSplitSeedChangesBoundaries: a different seed must yield a
// different gear table (different boundaries), else Seed is decorative.
func TestSplitSeedChangesBoundaries(t *testing.T) {
	a := testChunker(t)
	b, err := NewChunker(Config{Seed: 12345})
	if err != nil {
		t.Fatalf("NewChunker: %v", err)
	}
	data := testData(7, 256<<10)
	ca, cb := a.Split(data), b.Split(data)
	if len(ca) == len(cb) {
		same := true
		for i := range ca {
			if len(ca[i]) != len(cb[i]) {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical boundaries")
		}
	}
}

// TestSplitLocality is the content-defined property itself: editing a
// region of the input must leave chunks outside the edit's
// neighbourhood identical (by hash), which byte-offset chunking cannot
// do for insertions.
func TestSplitLocality(t *testing.T) {
	c := testChunker(t)
	base := testData(11, 512<<10)
	edited := append([]byte(nil), base[:100<<10]...)
	edited = append(edited, []byte("inserted bytes that shift every later offset")...)
	edited = append(edited, base[100<<10:]...)

	hashes := func(chunks [][]byte) map[[32]byte]bool {
		m := make(map[[32]byte]bool, len(chunks))
		for _, ch := range chunks {
			m[sha256.Sum256(ch)] = true
		}
		return m
	}
	hb := hashes(c.Split(base))
	shared := 0
	ce := c.Split(edited)
	for _, ch := range ce {
		if hb[sha256.Sum256(ch)] {
			shared++
		}
	}
	if shared < len(ce)/2 {
		t.Fatalf("after a point edit only %d/%d chunks are shared; content-defined boundaries are not holding", shared, len(ce))
	}
}

func TestNewChunkerRejectsBadGeometry(t *testing.T) {
	bad := []Config{
		{Min: 32, Avg: 512, Max: 1024},
		{Min: 512, Avg: 256, Max: 1024},
		{Min: 256, Avg: 2048, Max: 1024},
		{Min: 256, Avg: 100, Max: 1024},
		{Min: 1 << 20, Avg: 1 << 24, Max: 1 << 31},
	}
	for i, cfg := range bad {
		if _, err := NewChunker(cfg); err == nil {
			t.Errorf("config %d (%+v) accepted", i, cfg)
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	c := testChunker(t)
	data := testData(5, 200<<10)
	chunks := c.Split(data)
	m, err := BuildManifest(chunks)
	if err != nil {
		t.Fatalf("BuildManifest: %v", err)
	}
	if m.Total != uint64(len(data)) {
		t.Fatalf("Total = %d, want %d", m.Total, len(data))
	}
	enc := m.Encode()
	dec, err := DecodeManifest(enc)
	if err != nil {
		t.Fatalf("DecodeManifest: %v", err)
	}
	if dec.Total != m.Total || len(dec.Refs) != len(m.Refs) {
		t.Fatal("decoded manifest differs")
	}
	for i := range dec.Refs {
		if dec.Refs[i] != m.Refs[i] {
			t.Fatalf("ref %d differs", i)
		}
	}
}

func TestManifestDecodeRejects(t *testing.T) {
	m, err := BuildManifest([][]byte{[]byte("hello"), []byte("world")})
	if err != nil {
		t.Fatalf("BuildManifest: %v", err)
	}
	enc := m.Encode()

	mutate := func(fn func(b []byte) []byte) error {
		b := append([]byte(nil), enc...)
		_, err := DecodeManifest(fn(b))
		return err
	}
	if err := mutate(func(b []byte) []byte { b[0] = 'X'; return b }); err == nil {
		t.Error("bad magic accepted")
	}
	if err := mutate(func(b []byte) []byte { b[4] = 99; return b }); err == nil {
		t.Error("unknown version accepted")
	}
	if err := mutate(func(b []byte) []byte { return b[:len(b)-1] }); err == nil {
		t.Error("truncated manifest accepted")
	}
	if err := mutate(func(b []byte) []byte { return append(b, 0) }); err == nil {
		t.Error("trailing bytes accepted")
	}
	if err := mutate(func(b []byte) []byte { b[16]++; return b }); err == nil {
		t.Error("total/length mismatch accepted")
	}
	if err := mutate(func(b []byte) []byte { b[5], b[6], b[7], b[8] = 0xFF, 0xFF, 0xFF, 0xFF; return b }); err == nil {
		t.Error("oversized count accepted")
	}
	if _, err := DecodeManifest(nil); err == nil {
		t.Error("empty manifest accepted")
	}
	// A version 1 manifest: the same fields plus a 32-byte whole-result
	// digest after Total.
	v1 := append(append([]byte(nil), enc[:manifestHeaderSize]...), make([]byte, 32)...)
	v1[4] = 1
	if _, err := DecodeManifest(append(v1, enc[manifestHeaderSize:]...)); !errors.Is(err, ErrManifest) {
		t.Errorf("v1 manifest: err = %v, want ErrManifest", err)
	}
}

func TestBuildManifestCapsChunkCount(t *testing.T) {
	chunks := make([][]byte, MaxManifestChunks+1)
	for i := range chunks {
		chunks[i] = []byte{byte(i)}
	}
	if _, err := BuildManifest(chunks); err == nil {
		t.Fatal("oversized manifest accepted")
	}
	if _, err := BuildManifest(chunks[:MaxManifestChunks]); err != nil {
		t.Fatalf("manifest at the cap rejected: %v", err)
	}
}

// TestManifestCapMatchesWire pins MaxManifestChunks to wire's batch cap
// so one manifest's chunk fetch always fits a single BatchGet.
func TestManifestCapMatchesWire(t *testing.T) {
	if MaxManifestChunks != wire.MaxBatchItems {
		t.Fatalf("MaxManifestChunks = %d, wire.MaxBatchItems = %d", MaxManifestChunks, wire.MaxBatchItems)
	}
}

// TestDerivedIdentities pins that the three identities (base, content,
// manifest) are pairwise distinct and deterministic — the property that
// keeps the three dictionaries disjoint.
func TestDerivedIdentities(t *testing.T) {
	var base mle.FuncID
	copy(base[:], testData(1, 32))
	cid, mid := ContentFuncID(base), ManifestFuncID(base)
	if cid == base || mid == base || cid == mid {
		t.Fatal("derived identities collide")
	}
	if ContentFuncID(base) != cid || ManifestFuncID(base) != mid {
		t.Fatal("derivation is not deterministic")
	}
	var other mle.FuncID
	other[0] = 1
	if ContentFuncID(other) == cid {
		t.Fatal("different base functions share a content identity")
	}
}

// TestChunkConvergence is the scheme-level convergence property: two
// independent parties (fresh RCE states) encrypting the same chunk
// derive the same tag, and either can decrypt the other's sealed chunk
// knowing only the derived identity and the chunk hash — the exact
// capability a manifest conveys.
func TestChunkConvergence(t *testing.T) {
	var base mle.FuncID
	base[0] = 42
	cid := ContentFuncID(base)
	content := testData(9, 8<<10)
	h := Hash(content)

	if Tag(cid, h) != Tag(cid, h) {
		t.Fatal("chunk tags are not deterministic")
	}

	alice, bob := &mle.RCE{}, &mle.RCE{}
	sealedA, err := alice.Encrypt(cid, h[:], content)
	if err != nil {
		t.Fatalf("alice Encrypt: %v", err)
	}
	got, err := bob.Decrypt(cid, h[:], sealedA)
	if err != nil {
		t.Fatalf("bob cannot decrypt alice's chunk: %v", err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("decrypted chunk differs")
	}

	// A party without the hash (wrong input) must get ⊥.
	wrong := h
	wrong[0] ^= 1
	if _, err := bob.Decrypt(cid, wrong[:], sealedA); err == nil {
		t.Fatal("decryption succeeded with the wrong chunk hash")
	}
}
