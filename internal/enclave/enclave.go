// Package enclave provides a software simulation of an Intel SGX-like
// trusted execution environment.
//
// No SGX hardware is available in this reproduction environment, so the
// package models the three properties of SGX that SPEED's design and
// evaluation depend on:
//
//  1. a trust boundary with a code measurement (MRENCLAVE analogue) and a
//     platform-bound sealing/attestation key hierarchy,
//  2. a fixed per-transition cost for every ECALL and OCALL (the control
//     switches whose overhead dominates Fig. 6 of the paper at small
//     result sizes), and
//  3. a limited Enclave Page Cache (EPC): 128 MB total, ~90 MB usable,
//     with a paging penalty for memory used beyond the usable budget.
//
// Costs are simulated by spinning for a calibrated duration, so wall-clock
// benchmarks over the simulator reproduce the relative shapes of the
// paper's SGX-vs-native measurements. Setting Config.SimulateCosts to
// false turns the simulator into a zero-overhead pass-through, which is
// how the "without SGX" baselines of Fig. 6 are produced.
package enclave

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdsa"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"

	"speed/internal/mle"
)

// Default memory geometry, matching the experimental setup in the paper
// (Section V-A: "the enclave memory is set to the maximum 128MB (90MB
// usable)").
const (
	DefaultEPCBytes       = 128 << 20
	DefaultEPCUsableBytes = 90 << 20
	pageSize              = 4096
)

// Default transition cost. Published measurements of SGX enclave
// transitions put a round trip at roughly 8,000-14,000 cycles plus SDK
// marshalling overhead; on the paper's 2.8 GHz Xeon that is on the order
// of 3-10 microseconds each way.
const DefaultTransitionCost = 4 * time.Microsecond

// DefaultPagingCost is the simulated cost of evicting and reloading one
// 4 KB EPC page (encryption + integrity check on the paging path).
const DefaultPagingCost = 7 * time.Microsecond

var (
	// ErrOutOfMemory is returned by Alloc when the requested allocation
	// would exceed the total EPC of the platform.
	ErrOutOfMemory = errors.New("enclave: out of EPC memory")
	// ErrDestroyed is returned when operating on a destroyed enclave.
	ErrDestroyed = errors.New("enclave: enclave destroyed")
)

// Config controls the behaviour of a simulated platform.
type Config struct {
	// EPCBytes is the total protected memory available to all enclaves
	// on the platform. Defaults to 128 MB.
	EPCBytes int64
	// EPCUsableBytes is the amount of EPC usable before the simulator
	// starts charging paging penalties. Defaults to 90 MB.
	EPCUsableBytes int64
	// TransitionCost is the simulated one-way cost of crossing the
	// enclave boundary (half of an ECALL or OCALL round trip is charged
	// on entry and half on exit).
	TransitionCost time.Duration
	// PagingCost is the simulated cost per 4 KB page touched beyond the
	// usable EPC budget.
	PagingCost time.Duration
	// SimulateCosts enables wall-clock simulation of transition and
	// paging costs. When false the platform tracks metrics but spends
	// no time, modelling execution outside SGX.
	SimulateCosts bool
	// PlatformSeed, when non-empty, derives the platform key
	// deterministically instead of randomly. This models the fused
	// per-machine key of real SGX hardware: two Platform values with
	// the same seed behave as the same physical machine, so sealed
	// data survives process restarts. Leave empty for an ephemeral
	// platform.
	PlatformSeed []byte
}

func (c Config) withDefaults() Config {
	if c.EPCBytes == 0 {
		c.EPCBytes = DefaultEPCBytes
	}
	if c.EPCUsableBytes == 0 {
		c.EPCUsableBytes = DefaultEPCUsableBytes
	}
	if c.TransitionCost == 0 {
		c.TransitionCost = DefaultTransitionCost
	}
	if c.PagingCost == 0 {
		c.PagingCost = DefaultPagingCost
	}
	return c
}

// Measurement is the SHA-256 digest of an enclave's initial code and
// data, analogous to SGX's MRENCLAVE.
type Measurement [32]byte

// String renders the measurement as a short hex prefix for logs.
func (m Measurement) String() string {
	return fmt.Sprintf("%x", m[:8])
}

// Platform is a simulated SGX-capable machine. It owns the EPC and the
// platform key hierarchy from which sealing and attestation keys are
// derived. The zero value is not usable; construct with NewPlatform.
type Platform struct {
	cfg Config

	mu       sync.Mutex
	epcUsed  int64
	enclaves map[string]*Enclave
	nextID   uint64

	platformKey [32]byte
	attestPriv  *ecdsa.PrivateKey
	attestPub   []byte
}

// NewPlatform creates a platform with the given configuration. Zero
// fields take the defaults documented on Config.
func NewPlatform(cfg Config) *Platform {
	p := &Platform{
		cfg:      cfg.withDefaults(),
		enclaves: make(map[string]*Enclave),
	}
	if len(p.cfg.PlatformSeed) > 0 {
		mac := hmac.New(sha256.New, []byte("speed/platform-key/v1"))
		mac.Write(p.cfg.PlatformSeed)
		copy(p.platformKey[:], mac.Sum(nil))
	} else if _, err := rand.Read(p.platformKey[:]); err != nil {
		// The crypto/rand contract effectively never fails on the
		// supported platforms; startup is the one place a panic is
		// acceptable per the style guide.
		panic(fmt.Sprintf("enclave: platform key generation: %v", err))
	}
	p.initAttestationKey()
	return p
}

// Config returns the platform's effective configuration.
func (p *Platform) Config() Config { return p.cfg }

// EPCUsed reports the current total EPC consumption across all enclaves.
func (p *Platform) EPCUsed() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epcUsed
}

// Create instantiates an enclave whose measurement is the SHA-256 of
// code. The name is only used for diagnostics and must be unique on the
// platform.
func (p *Platform) Create(name string, code []byte) (*Enclave, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.enclaves[name]; ok {
		return nil, fmt.Errorf("enclave: enclave %q already exists", name)
	}
	e := &Enclave{
		platform:    p,
		name:        name,
		measurement: sha256.Sum256(code),
	}
	key := p.deriveKey("seal", e.measurement)
	defer mle.Zeroize(key[:])
	block, err := aes.NewCipher(key[:16])
	if err == nil {
		e.seal, err = cipher.NewGCM(block)
	}
	if err != nil {
		return nil, fmt.Errorf("enclave: seal cipher: %w", err)
	}
	p.enclaves[name] = e
	return e, nil
}

// deriveKey derives a per-purpose, per-measurement key from the platform
// key, mimicking SGX's EGETKEY key hierarchy.
func (p *Platform) deriveKey(purpose string, m Measurement) [32]byte {
	mac := hmac.New(sha256.New, p.platformKey[:])
	mac.Write([]byte(purpose))
	mac.Write(m[:])
	var out [32]byte
	copy(out[:], mac.Sum(nil))
	return out
}

// reserve charges n bytes of EPC, returning the number of pages that fell
// beyond the usable budget (and therefore incur paging penalties).
func (p *Platform) reserve(n int64) (overPages int64, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.epcUsed+n > p.cfg.EPCBytes {
		return 0, fmt.Errorf("%w: used %d + requested %d > %d",
			ErrOutOfMemory, p.epcUsed, n, p.cfg.EPCBytes)
	}
	before := p.epcUsed
	p.epcUsed += n
	if p.epcUsed > p.cfg.EPCUsableBytes {
		overStart := max(before, p.cfg.EPCUsableBytes)
		overPages = (p.epcUsed - overStart + pageSize - 1) / pageSize
	}
	return overPages, nil
}

func (p *Platform) release(n int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.epcUsed -= n
	if p.epcUsed < 0 {
		p.epcUsed = 0
	}
}

// Enclave is a simulated enclave instance. All methods are safe for
// concurrent use.
type Enclave struct {
	platform    *Platform
	name        string
	measurement Measurement
	seal        cipher.AEAD

	mu        sync.Mutex
	heapUsed  int64
	destroyed bool

	metrics Metrics
}

// Name returns the diagnostic name given at creation.
func (e *Enclave) Name() string { return e.name }

// Measurement returns the enclave's code measurement.
func (e *Enclave) Measurement() Measurement { return e.measurement }

// HeapUsed reports the enclave's current protected-heap consumption.
func (e *Enclave) HeapUsed() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.heapUsed
}

// Destroy tears the enclave down and releases its EPC.
func (e *Enclave) Destroy() {
	e.mu.Lock()
	used := e.heapUsed
	e.heapUsed = 0
	wasDestroyed := e.destroyed
	e.destroyed = true
	e.mu.Unlock()
	if wasDestroyed {
		return
	}
	e.platform.release(used)
	e.platform.mu.Lock()
	delete(e.platform.enclaves, e.name)
	e.platform.mu.Unlock()
}

// Alloc charges n bytes against the enclave heap (and the platform EPC),
// simulating paging costs for pages beyond the usable budget.
func (e *Enclave) Alloc(n int64) error {
	if n < 0 {
		return fmt.Errorf("enclave: negative allocation %d", n)
	}
	e.mu.Lock()
	if e.destroyed {
		e.mu.Unlock()
		return ErrDestroyed
	}
	e.mu.Unlock()
	overPages, err := e.platform.reserve(n)
	if err != nil {
		return err
	}
	e.mu.Lock()
	e.heapUsed += n
	e.metrics.AllocBytes += n
	e.metrics.PageFaults += overPages
	e.mu.Unlock()
	if overPages > 0 {
		e.spend(time.Duration(overPages) * e.platform.cfg.PagingCost)
	}
	return nil
}

// Free returns n bytes to the platform EPC; a nil enclave frees nothing.
func (e *Enclave) Free(n int64) {
	if e == nil || n < 0 {
		return
	}
	e.mu.Lock()
	if n > e.heapUsed {
		n = e.heapUsed
	}
	e.heapUsed -= n
	e.mu.Unlock()
	e.platform.release(n)
}

// ECall runs fn "inside" the enclave, charging one boundary crossing on
// entry and one on exit, exactly like an SGX ECALL.
func (e *Enclave) ECall(fn func() error) error { return e.cross(&e.metrics.ECalls, fn) }

// OCall runs fn "outside" the enclave on behalf of in-enclave code,
// charging the same two boundary crossings as an SGX OCALL.
func (e *Enclave) OCall(fn func() error) error { return e.cross(&e.metrics.OCalls, fn) }

// cross runs fn between two boundary crossings, counting the call in
// *calls.
func (e *Enclave) cross(calls *int64, fn func() error) error {
	e.mu.Lock()
	if e.destroyed {
		e.mu.Unlock()
		return ErrDestroyed
	}
	*calls++
	e.mu.Unlock()
	e.spend(e.platform.cfg.TransitionCost)
	err := fn()
	e.spend(e.platform.cfg.TransitionCost)
	return err
}

// spend burns the given duration with a spin wait. Sleeping is far too
// coarse at microsecond scale for benchmark fidelity.
func (e *Enclave) spend(d time.Duration) {
	if !e.platform.cfg.SimulateCosts || d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}

// Metrics is a snapshot of an enclave's activity counters.
type Metrics struct {
	ECalls     int64
	OCalls     int64
	AllocBytes int64
	PageFaults int64
}

// Metrics returns a snapshot of the enclave's counters.
func (e *Enclave) Metrics() Metrics {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.metrics
}
