package integration_test

import (
	"fmt"
	"sync"
	"testing"

	"speed/internal/enclave"
	"speed/internal/store"
	"speed/internal/workload"
)

// TestSoakSustainedTraffic drives a bounded store with sustained mixed
// traffic from several concurrent applications: tens of thousands of
// operations with Zipf-repeated inputs, LRU pressure and coalesced
// bursts. Invariants checked at the end: no
// wrong results (verified per call), entry count within bounds, EPC
// fully accounted.
func TestSoakSustainedTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in short mode")
	}
	const (
		apps        = 4
		callsPerApp = 4000
		distinct    = 600
		maxEntries  = 400
	)
	s := newStack(t, store.Config{MaxEntries: maxEntries}, enclave.Config{})

	var wg sync.WaitGroup
	for a := 0; a < apps; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			rt := s.newApp(fmt.Sprintf("soak-app-%d", a))
			id := appFuncID(t, rt, "soak-func")
			src := workload.New(int64(1000 + a))
			indices := src.ZipfIndices(callsPerApp, distinct)
			for i, idx := range indices {
				input := []byte(fmt.Sprintf("input-%06d", idx))
				res, _, err := rt.Execute(id, input, func(in []byte) ([]byte, error) {
					return append([]byte("R|"), in...), nil
				})
				if err != nil {
					t.Errorf("app %d call %d: %v", a, i, err)
					return
				}
				if want := "R|" + string(input); string(res) != want {
					t.Errorf("app %d call %d: result %q, want %q", a, i, res, want)
					return
				}
			}
			st := rt.Stats()
			if st.Reused+st.Coalesced == 0 {
				t.Errorf("app %d: no reuse at all over %d Zipf-repeated calls", a, callsPerApp)
			}
		}(a)
	}
	wg.Wait()

	if got := s.store.Len(); got > maxEntries {
		t.Errorf("store entries = %d, exceeds cap %d", got, maxEntries)
	}
	stats := s.store.Stats()
	if stats.Evictions == 0 {
		t.Error("no evictions despite cap pressure")
	}
	// EPC accounting: heap equals per-entry footprint, no leaks from
	// the churn.
	perEntry := s.storeEnc.HeapUsed() / int64(s.store.Len())
	if perEntry <= 0 || perEntry > 4096 {
		t.Errorf("per-entry enclave footprint = %d bytes, implausible", perEntry)
	}
	t.Logf("soak done: %+v, enclave heap %d bytes for %d entries",
		stats, s.storeEnc.HeapUsed(), s.store.Len())
}
