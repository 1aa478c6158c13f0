package speed

import (
	"fmt"
	"net"

	"speed/internal/dedup"
	"speed/internal/enclave"
	"speed/internal/store"
	"speed/internal/telemetry"
	"speed/internal/wire"
)

// Measurement identifies an enclave's code, analogous to SGX's
// MRENCLAVE.
type Measurement = enclave.Measurement

// FuncDesc describes a marked function: library family, version and
// signature, e.g. ("zlib", "1.2.11", "int deflate(...)").
type FuncDesc = dedup.FuncDesc

// Outcome reports how a deduplicable call was satisfied.
type Outcome = dedup.Outcome

// Re-exported outcomes.
const (
	// OutcomeComputed: freshly computed and uploaded (initial
	// computation, Algorithm 1).
	OutcomeComputed = dedup.OutcomeComputed
	// OutcomeReused: a stored result was verified and reused
	// (subsequent computation, Algorithm 2).
	OutcomeReused = dedup.OutcomeReused
	// OutcomeRecomputed: a stored entry failed verification and the
	// result was recomputed.
	OutcomeRecomputed = dedup.OutcomeRecomputed
	// OutcomeCoalesced: an identical in-flight computation in this
	// process was shared.
	OutcomeCoalesced = dedup.OutcomeCoalesced
)

// SystemConfig tunes the simulated platform and the ResultStore. The
// zero value gives the paper's defaults: 128 MB EPC (90 MB usable),
// SGX transition costs enabled, a volatile in-memory store, no quotas.
type SystemConfig struct {
	// DisableSGXCosts turns off the simulated ECALL/OCALL and paging
	// costs — the "without SGX" mode of Fig. 6.
	DisableSGXCosts bool
	// StoreMaxEntries bounds the ResultStore's entry count; 0 means
	// unlimited. In memory the least recently used entry is evicted;
	// with StoreDataDir the oldest segment's records go first, then the
	// least recently used of those not yet flushed.
	StoreMaxEntries int
	// QuotaMaxBytesPerApp caps each application's resident ciphertext
	// bytes, the per-application quota mechanism (DoS mitigation); 0
	// means unlimited.
	QuotaMaxBytesPerApp int64
	// StoreDataDir, when set, runs the ResultStore on the persistent
	// log-structured engine rooted at this directory (sealed WAL +
	// segments, the engine's default budgets, fsync on every commit), so
	// the store survives a restart; it needs a PlatformSeed, or the next
	// process cannot unseal what this one wrote. Empty means a volatile
	// in-memory store.
	StoreDataDir string
	// DenyByDefault enables controlled deduplication: applications
	// must be explicitly authorized with System.Authorize before the
	// store serves them. Without it any attested application is
	// served.
	DenyByDefault bool
	// ObliviousLookups makes store lookups memory-access-pattern
	// oblivious (every GET scans the whole dictionary with
	// constant-time comparison), trading throughput for side-channel
	// resistance.
	ObliviousLookups bool
	// PlatformSeed makes the simulated machine's key hierarchy
	// deterministic, like the fused keys of real SGX hardware: a
	// StoreDataDir written under one seed reopens only under the same
	// seed.
	PlatformSeed []byte
	// TrustedPlatforms lists platform attestation keys (from
	// System.AttestationKey on other machines) whose applications may
	// connect to this deployment's served store via remote
	// attestation. Without it, only same-platform applications can
	// connect.
	TrustedPlatforms [][]byte
}

// System is one SPEED deployment on a simulated SGX machine: the
// platform, the ResultStore enclave and the store itself.
type System struct {
	platform *enclave.Platform
	storeEnc *enclave.Enclave
	store    *store.Store
	acl      *store.ACL // non-nil when DenyByDefault
	trusted  [][]byte   // remote platforms the served store accepts
	tel      *telemetry.Registry
}

// NewSystem creates a deployment with the zero-value SystemConfig.
func NewSystem() (*System, error) {
	return NewSystemWithConfig(SystemConfig{})
}

// NewSystemWithConfig creates a deployment with explicit configuration.
func NewSystemWithConfig(cfg SystemConfig) (*System, error) {
	platform := enclave.NewPlatform(enclave.Config{
		SimulateCosts: !cfg.DisableSGXCosts,
		PlatformSeed:  cfg.PlatformSeed,
	})
	storeEnc, err := platform.Create("speed-resultstore", []byte("speed resultstore enclave v1"))
	if err != nil {
		return nil, fmt.Errorf("speed: create store enclave: %w", err)
	}
	var acl *store.ACL
	var auth store.Authorizer
	if cfg.DenyByDefault {
		acl = store.NewACL(0)
		auth = acl
	}
	tel := telemetry.NewRegistry()
	st, err := store.New(store.Config{
		Enclave:    storeEnc,
		MaxEntries: cfg.StoreMaxEntries,
		Auth:       auth,
		Oblivious:  cfg.ObliviousLookups,
		Telemetry:  tel,
		DataDir:    cfg.StoreDataDir,
		Quota:      store.QuotaConfig{MaxBytesPerApp: cfg.QuotaMaxBytesPerApp},
	})
	if err != nil {
		return nil, fmt.Errorf("speed: create store: %w", err)
	}
	platform.RegisterTelemetry(tel)
	storeEnc.RegisterTelemetry(tel)
	return &System{platform: platform, storeEnc: storeEnc, store: st, acl: acl,
		trusted: cfg.TrustedPlatforms, tel: tel}, nil
}

// Telemetry returns the deployment's metric registry. Every component
// of the deployment — the platform, the ResultStore and its enclave,
// and each App created from this System — registers into it; expose it
// with telemetry.Serve or AppConfig.MetricsAddr.
func (s *System) Telemetry() *telemetry.Registry { return s.tel }

// AttestationKey returns this machine's platform attestation public
// key, to be registered in other deployments' TrustedPlatforms (the
// analogue of attestation-service provisioning).
func (s *System) AttestationKey() []byte {
	return s.platform.AttestationPublicKey()
}

// Authorize grants an application access to the store under
// controlled deduplication (DenyByDefault). get and put select the
// permitted operations. A no-op unless DenyByDefault was set.
func (s *System) Authorize(app Measurement, get, put bool) {
	if s.acl == nil {
		return
	}
	var perm store.Permission
	if get {
		perm |= store.PermGet
	}
	if put {
		perm |= store.PermPut
	}
	s.acl.Grant(app, perm)
}

// RevokeAuthorization removes an application's grant under controlled
// deduplication.
func (s *System) RevokeAuthorization(app Measurement) {
	if s.acl != nil {
		s.acl.Revoke(app)
	}
}

// StoreMeasurement returns the ResultStore enclave's measurement, which
// remote applications pin during the attested handshake.
func (s *System) StoreMeasurement() Measurement {
	return s.storeEnc.Measurement()
}

// StoreStats is a snapshot of ResultStore activity.
type StoreStats struct {
	// Gets and Hits count GET_REQUESTs and those answered positively.
	Gets, Hits int64
	// Puts counts accepted fresh uploads; PutDupes counts uploads for
	// already-stored tags; PutDenied counts quota rejections.
	Puts, PutDupes, PutDenied int64
	// Unauthorized counts operations denied by controlled
	// deduplication.
	Unauthorized int64
	// Evictions counts entries removed by the StoreMaxEntries cap.
	Evictions int64
	// Entries is the current dictionary size; BlobBytes the total
	// ciphertext bytes outside the enclave.
	Entries   int
	BlobBytes int64
}

// StoreStats returns a snapshot of the deployment's store counters.
func (s *System) StoreStats() StoreStats {
	st := s.store.Stats()
	return StoreStats{
		Gets: st.Gets, Hits: st.Hits,
		Puts: st.Puts, PutDupes: st.PutDupes, PutDenied: st.PutDenied,
		Unauthorized: st.Unauthorized,
		Evictions:    st.Evictions,
		Entries:      st.Entries, BlobBytes: st.BlobBytes,
	}
}

// EPCUsed reports the platform's current protected-memory consumption.
func (s *System) EPCUsed() int64 { return s.platform.EPCUsed() }

// Serve exposes the ResultStore on the listener using the attested wire
// protocol. Applications on the same machine always connect; remote
// applications connect when their platform is in TrustedPlatforms. The
// returned server runs until its Close method is called.
func (s *System) Serve(ln net.Listener) *StoreServer {
	if s.tel.Node() == "" {
		s.tel.SetNode(ln.Addr().String())
	}
	opts := []store.ServerOption{store.WithTelemetry(s.tel)}
	if len(s.trusted) > 0 {
		opts = append(opts, store.WithTrust(&wire.Trust{PlatformKeys: s.trusted}))
	}
	srv := store.NewServer(s.store, ln, opts...)
	go func() { _ = srv.Serve() }()
	return &StoreServer{srv: srv}
}

// StoreServer is a running networked ResultStore endpoint.
type StoreServer struct {
	srv *store.Server
}

// Addr returns the listening address.
func (s *StoreServer) Addr() net.Addr { return s.srv.Addr() }

// Close stops the server and waits for in-flight handlers.
func (s *StoreServer) Close() error { return s.srv.Close() }

// Close shuts the deployment down. Applications created from it must be
// closed first.
func (s *System) Close() {
	s.store.Close()
	s.storeEnc.Destroy()
}
