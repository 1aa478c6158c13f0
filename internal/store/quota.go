package store

import (
	"sync"
	"time"

	"speed/internal/enclave"
)

// QuotaConfig configures the per-application quota mechanism the paper
// proposes against PUT-flooding denial of service ("we can adopt the
// rate-limiting strategy into SPEED, which involves a quota mechanism
// to limit the cache space for each application", Section III-D).
type QuotaConfig struct {
	// MaxBytesPerApp caps the total ciphertext bytes an application may
	// have resident in the store. Zero means unlimited.
	MaxBytesPerApp int64
	// PutRatePerSec is the sustained PUT rate allowed per application
	// via a token bucket. Zero means unlimited.
	PutRatePerSec float64
	// PutBurst is the token-bucket burst capacity; zero defaults to
	// PutRatePerSec, but never below the one token a PUT takes.
	PutBurst float64
}

// quotas tracks per-application usage. The identity of an application
// is its attested enclave measurement.
type quotas struct {
	cfg QuotaConfig
	now func() time.Time

	mu   sync.Mutex
	apps map[enclave.Measurement]*appQuota
}

type appQuota struct {
	bytes  int64
	tokens float64
	last   time.Time
}

func newQuotas(cfg QuotaConfig, now func() time.Time) *quotas {
	if now == nil {
		now = time.Now
	}
	if cfg.PutBurst == 0 {
		cfg.PutBurst = max(cfg.PutRatePerSec, 1)
	}
	return &quotas{cfg: cfg, now: now, apps: make(map[enclave.Measurement]*appQuota)}
}

func (q *quotas) app(id enclave.Measurement) *appQuota {
	a, ok := q.apps[id]
	if !ok {
		a = &appQuota{tokens: q.cfg.PutBurst, last: q.now()}
		q.apps[id] = a
	}
	return a
}

// allowPut checks and consumes quota for a PUT of n ciphertext bytes by
// the given application. It reports whether the request is admitted and
// a reason when it is not.
func (q *quotas) allowPut(id enclave.Measurement, n int64) (bool, string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	a := q.app(id)

	if q.cfg.PutRatePerSec > 0 {
		now := q.now()
		elapsed := now.Sub(a.last).Seconds()
		a.last = now
		a.tokens += elapsed * q.cfg.PutRatePerSec
		if a.tokens > q.cfg.PutBurst {
			a.tokens = q.cfg.PutBurst
		}
		if a.tokens < 1 {
			return false, "put rate limit exceeded"
		}
		a.tokens--
	}

	if q.cfg.MaxBytesPerApp > 0 && a.bytes+n > q.cfg.MaxBytesPerApp {
		return false, "cache space quota exceeded"
	}
	a.bytes += n
	return true, ""
}

// fits reports whether n more bytes fit the app's space quota right now.
func (q *quotas) fits(id enclave.Measurement, n int64) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.cfg.MaxBytesPerApp <= 0 || q.app(id).bytes+n <= q.cfg.MaxBytesPerApp
}

// creditBytes returns n bytes to the application's space quota, used
// when an entry is evicted or a PUT loses a race with a concurrent
// duplicate.
func (q *quotas) creditBytes(id enclave.Measurement, n int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	a := q.app(id)
	a.bytes -= n
	if a.bytes < 0 {
		a.bytes = 0
	}
}

// bytesOf reports an application's resident ciphertext bytes.
func (q *quotas) bytesOf(id enclave.Measurement) int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.app(id).bytes
}
