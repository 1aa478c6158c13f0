package store

import (
	"sync"

	"speed/internal/enclave"
)

// quotas is the per-application quota the paper proposes against
// PUT-flooding denial of service ("we can adopt the rate-limiting
// strategy into SPEED, which involves a quota mechanism to limit the
// cache space for each application", Section III-D): it caps the
// ciphertext bytes each application has resident in the store. The
// identity of an application is its attested enclave measurement.
type quotas struct {
	limit int64 // Config.MaxBytesPerApp; 0 means unlimited

	mu    sync.Mutex
	bytes map[enclave.Measurement]int64
}

func newQuotas(limit int64) *quotas {
	return &quotas{limit: limit, bytes: make(map[enclave.Measurement]int64)}
}

// allowPut charges a PUT of n ciphertext bytes to the application,
// reporting false, and charging nothing, when they do not fit.
func (q *quotas) allowPut(id enclave.Measurement, n int64) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.limit > 0 && q.bytes[id]+n > q.limit {
		return false
	}
	q.bytes[id] += n
	return true
}

// fits reports whether n more bytes fit the app's space quota right now.
func (q *quotas) fits(id enclave.Measurement, n int64) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.limit <= 0 || q.bytes[id]+n <= q.limit
}

// creditBytes returns n bytes to the application's space quota, used
// when an entry is evicted or a PUT loses a race with a concurrent
// duplicate.
func (q *quotas) creditBytes(id enclave.Measurement, n int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.bytes[id] = max(q.bytes[id]-n, 0)
}

// bytesOf reports an application's resident ciphertext bytes.
func (q *quotas) bytesOf(id enclave.Measurement) int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.bytes[id]
}
