package speed

import (
	"fmt"

	"speed/internal/dedup"
	"speed/internal/enclave"
	"speed/internal/telemetry"
	"speed/internal/wire"
)

// AppConfig tunes one SGX-enabled application.
type AppConfig struct {
	// RemoteStoreAddr, when set, connects the application to a
	// networked ResultStore (created with System.Serve on another
	// System) instead of this System's local store.
	// RemoteStoreMeasurement pins the expected store identity.
	RemoteStoreAddr        string
	RemoteStoreMeasurement Measurement
	// TrustedStorePlatforms lists platform attestation keys (from
	// System.AttestationKey on the store's machine) accepted for a
	// remote store on a DIFFERENT machine. Without it, the remote
	// store must live on this application's own platform.
	TrustedStorePlatforms [][]byte
	// MetricsAddr, when non-empty (e.g. "127.0.0.1:0"), serves the
	// deployment's telemetry registry over HTTP for the lifetime of the
	// App: /metrics (Prometheus text format), /debug/trace (sampled
	// trace events) and /debug/vars (JSON snapshot). The bound address
	// is available from App.MetricsAddr.
	MetricsAddr string
	// TraceSampleRate traces one Execute call in every N into the
	// registry's trace ring. 0 uses the default (64); negative disables
	// tracing.
	TraceSampleRate int
}

// App is one SGX-enabled application: its enclave plus the secure
// deduplication runtime linked into it.
type App struct {
	enclave *enclave.Enclave
	runtime *dedup.Runtime
	tel     *telemetry.Registry
	metrics *telemetry.MetricsServer // non-nil when MetricsAddr was set
}

// NewApp creates an application enclave on the deployment's platform
// whose measurement derives from code, and links a deduplication
// runtime connected to the deployment's local ResultStore.
func (s *System) NewApp(name string, code []byte) (*App, error) {
	return s.NewAppWithConfig(name, code, AppConfig{})
}

// NewAppWithConfig is NewApp with explicit configuration.
func (s *System) NewAppWithConfig(name string, code []byte, cfg AppConfig) (*App, error) {
	enc, err := s.platform.Create(name, code)
	if err != nil {
		return nil, fmt.Errorf("speed: create app enclave: %w", err)
	}

	var client dedup.StoreClient
	if cfg.RemoteStoreAddr != "" {
		var trust *wire.Trust
		if len(cfg.TrustedStorePlatforms) > 0 {
			trust = &wire.Trust{PlatformKeys: cfg.TrustedStorePlatforms}
		}
		client, err = dedup.DialConfig(cfg.RemoteStoreAddr, enc, cfg.RemoteStoreMeasurement,
			dedup.RemoteConfig{Trust: trust, Telemetry: s.tel})
		if err != nil {
			enc.Destroy()
			return nil, fmt.Errorf("speed: connect remote store: %w", err)
		}
	} else {
		client = dedup.NewLocalClient(s.store, enc.Measurement())
	}

	rt, err := dedup.NewRuntime(dedup.Config{
		Enclave:         enc,
		Client:          client,
		Telemetry:       s.tel,
		TraceSampleRate: cfg.TraceSampleRate,
	})
	if err != nil {
		enc.Destroy()
		return nil, fmt.Errorf("speed: create runtime: %w", err)
	}
	enc.RegisterTelemetry(s.tel)
	app := &App{enclave: enc, runtime: rt, tel: s.tel}
	if cfg.MetricsAddr != "" {
		ms, err := telemetry.Serve(cfg.MetricsAddr, s.tel)
		if err != nil {
			_ = rt.Close()
			enc.Destroy()
			return nil, fmt.Errorf("speed: metrics listener: %w", err)
		}
		app.metrics = ms
		// Stamp the registry with an externally-visible identity once,
		// so spans this deployment records stay attributable in traces
		// assembled across the fleet.
		if s.tel.Node() == "" {
			s.tel.SetNode(ms.Addr().String())
		}
	}
	return app, nil
}

// RegisterLibrary records a trusted library (name, version, code) as
// present at this application, enabling Deduplicable wrappers over its
// functions. This models porting the library into the enclave as a
// trusted library.
func (a *App) RegisterLibrary(library, version string, code []byte) {
	a.runtime.Registry().RegisterLibrary(library, version, code)
}

// Measurement returns the application enclave's measurement.
func (a *App) Measurement() Measurement { return a.enclave.Measurement() }

// AppStats is a snapshot of the application's deduplication activity.
type AppStats struct {
	// Calls counts deduplicable invocations; Reused those served from
	// the store; Computed fresh executions; Coalesced calls that
	// shared an in-flight computation in this process.
	Calls, Reused, Computed, Coalesced int64
	// VerifyFailures counts stored entries rejected by the
	// verification protocol; PutErrors failed uploads.
	VerifyFailures, PutErrors int64
	// BytesReused totals plaintext result bytes served from the store
	// or from coalesced computations.
	BytesReused int64
	// Degraded counts calls served compute-only because the store was
	// unreachable; StoreFailures failed store GET and PUT requests;
	// Retries request retries performed by the store client.
	Degraded, StoreFailures, Retries int64
	// ECalls and OCalls count the application enclave's world switches;
	// PageFaults its EPC paging events; AllocBytes its cumulative
	// protected-heap allocations. Together they expose the SGX-side
	// cost the deduplication latencies are traded against.
	ECalls, OCalls, PageFaults, AllocBytes int64
}

// Stats returns a snapshot of the application's counters.
func (a *App) Stats() AppStats {
	st := a.runtime.Stats()
	em := a.enclave.Metrics()
	return AppStats{
		Calls: st.Calls, Reused: st.Reused, Computed: st.Computed,
		Coalesced:      st.Coalesced,
		VerifyFailures: st.VerifyFailures, PutErrors: st.PutErrors,
		BytesReused: st.BytesReused,
		Degraded:    st.Degraded, StoreFailures: st.StoreFailures, Retries: st.Retries,
		ECalls: em.ECalls, OCalls: em.OCalls,
		PageFaults: em.PageFaults, AllocBytes: em.AllocBytes,
	}
}

// Telemetry returns the deployment-wide metric registry this App
// reports into (shared with the System that created it).
func (a *App) Telemetry() *telemetry.Registry { return a.tel }

// MetricsAddr returns the bound address of the App's metrics endpoint,
// or "" when AppConfig.MetricsAddr was not set.
func (a *App) MetricsAddr() string {
	if a.metrics == nil {
		return ""
	}
	return a.metrics.Addr().String()
}

// Close disconnects from the store, stops the metrics endpoint if one
// was started, and destroys the application enclave. Every call sent
// its PUTs before it returned, so there are no pending uploads.
func (a *App) Close() error {
	err := a.runtime.Close()
	if a.metrics != nil {
		if cerr := a.metrics.Close(); err == nil {
			err = cerr
		}
	}
	a.enclave.Destroy()
	return err
}
