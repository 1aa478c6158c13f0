package bench

import (
	"fmt"
	"runtime"

	"speed/internal/enclave"
	"speed/internal/mle"
	"speed/internal/store"
)

// Fig6Row is one x-position of Fig. 6: the time to process 100
// GET_REQUESTs and 100 PUT_REQUESTs at the ResultStore for results of
// one size, with all-distinct incoming data.
type Fig6Row struct {
	// SizeBytes is the result ciphertext size.
	SizeBytes int
	// Get100MS and Put100MS are the total times for 100 operations.
	Get100MS, Put100MS float64
}

// DefaultFig6Sizes are the paper's sizes: 1 KB to 1 MB.
var DefaultFig6Sizes = []int{1 << 10, 10 << 10, 100 << 10, 1 << 20}

// Fig6 measures ResultStore throughput, averaging over trials runs of
// 100 operations each. withSGX true runs the store enclave with
// simulated transition costs (the paper's "with SGX" lines); false
// disables them (the "w/o SGX" lines).
func Fig6(sizes []int, withSGX bool, trials int) ([]Fig6Row, error) {
	if len(sizes) == 0 {
		sizes = DefaultFig6Sizes
	}
	if trials < 1 {
		trials = 1
	}
	const ops = 100
	rows := make([]Fig6Row, 0, len(sizes))
	for _, size := range sizes {
		platform := enclave.NewPlatform(enclave.Config{SimulateCosts: withSGX})
		storeEnc, err := platform.Create("fig6-store", []byte("store code"))
		if err != nil {
			return nil, err
		}
		// Cap the store at 2x the working set so repeated trials evict
		// old entries and process memory stays flat (unbounded growth
		// distorts large-size timings with allocator effects).
		st, err := store.New(store.Config{Enclave: storeEnc, MaxEntries: 2 * ops, Telemetry: registry})
		if err != nil {
			return nil, err
		}
		var owner enclave.Measurement
		owner[0] = 1

		// Prepare trials*ops distinct sealed results of the target
		// size (all-distinct incoming data, as in the paper).
		blob := randBytes(size)
		mkSealed := func() mle.Sealed {
			return mle.Sealed{
				Challenge:  randBytes(mle.ChallengeSize),
				WrappedKey: randBytes(mle.KeySize),
				Blob:       blob,
			}
		}
		mkTag := func(trial, i int) mle.Tag {
			var t mle.Tag
			t[0], t[1], t[2] = byte(i), byte(i>>8), byte(trial)
			return t
		}

		// Untimed warmup pass: faults in OS pages for the blob heap so
		// the first timed trial is not penalized relative to later
		// configurations measured in the same process.
		for i := 0; i < ops; i++ {
			if _, err := st.Put(owner, mkTag(255, i), mkSealed()); err != nil {
				return nil, err
			}
			if _, _, err := st.Get(mkTag(255, i)); err != nil {
				return nil, err
			}
		}

		runtime.GC()
		trial := 0
		putT, err := medianTimeIt(trials, func() error {
			trial++
			for i := 0; i < ops; i++ {
				if _, err := st.Put(owner, mkTag(trial, i), mkSealed()); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}

		runtime.GC()
		// Eviction keeps only the most recent trials resident, so GET
		// trials all read the last PUT trial's entries.
		lastTrial := trial
		getT, err := medianTimeIt(trials, func() error {
			for i := 0; i < ops; i++ {
				_, found, err := st.Get(mkTag(lastTrial, i))
				if err != nil {
					return err
				}
				if !found {
					return fmt.Errorf("bench: tag %d missing", i)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}

		st.Close()
		rows = append(rows, Fig6Row{
			SizeBytes: size,
			Get100MS:  ms(getT),
			Put100MS:  ms(putT),
		})
	}
	return rows, nil
}

// RenderFig6 formats the with/without-SGX row pairs like Fig. 6.
func RenderFig6(withSGX, withoutSGX []Fig6Row) string {
	s := "Fig. 6: time of 100 GET/PUT operations at ResultStore\n"
	s += fmt.Sprintf("%-10s %14s %14s %16s %16s\n",
		"Size(KB)", "GET sgx(ms)", "PUT sgx(ms)", "GET no-sgx(ms)", "PUT no-sgx(ms)")
	for i := range withSGX {
		var g2, p2 float64
		if i < len(withoutSGX) {
			g2, p2 = withoutSGX[i].Get100MS, withoutSGX[i].Put100MS
		}
		s += fmt.Sprintf("%-10d %14.2f %14.2f %16.2f %16.2f\n",
			withSGX[i].SizeBytes/1024, withSGX[i].Get100MS, withSGX[i].Put100MS, g2, p2)
	}
	return s
}
