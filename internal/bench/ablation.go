package bench

import (
	"crypto/sha256"
	"fmt"
	"time"

	"speed/internal/enclave"
	"speed/internal/mle"
	"speed/internal/store"
)

// The ablations called out in DESIGN.md: each isolates one design
// decision of the paper and quantifies its cost or benefit.

// SchemeRow compares the cross-application RCE scheme (Section III-C)
// with the single-key basic design (Section III-B) at one input size.
type SchemeRow struct {
	SizeBytes             int
	RCEEncMS, SingleEncMS float64
	RCEDecMS, SingleDecMS float64
}

// AblationScheme measures seal/open cost of both schemes. The expected
// result: RCE costs one extra hash over (func, input, r) plus an XOR —
// the price of eliminating the system-wide key.
func AblationScheme(sizes []int, trials int) ([]SchemeRow, error) {
	if len(sizes) == 0 {
		sizes = DefaultTable1Sizes
	}
	id := mle.FuncID(sha256.Sum256([]byte("ablation func")))
	var key [mle.KeySize]byte
	copy(key[:], "ablation-key-16b")
	rce := &mle.RCE{}
	single := mle.NewSingleKey(key, nil)

	rows := make([]SchemeRow, 0, len(sizes))
	for _, size := range sizes {
		input := randBytes(size)
		result := randBytes(size)
		row := SchemeRow{SizeBytes: size}

		var rceSealed, singleSealed mle.Sealed
		t, err := timeIt(trials, func() error {
			var e error
			rceSealed, e = rce.Encrypt(id, input, result)
			return e
		})
		if err != nil {
			return nil, err
		}
		row.RCEEncMS = ms(t)

		t, err = timeIt(trials, func() error {
			var e error
			singleSealed, e = single.Encrypt(id, input, result)
			return e
		})
		if err != nil {
			return nil, err
		}
		row.SingleEncMS = ms(t)

		t, err = timeIt(trials, func() error {
			_, e := rce.Decrypt(id, input, rceSealed)
			return e
		})
		if err != nil {
			return nil, err
		}
		row.RCEDecMS = ms(t)

		t, err = timeIt(trials, func() error {
			_, e := single.Decrypt(id, input, singleSealed)
			return e
		})
		if err != nil {
			return nil, err
		}
		row.SingleDecMS = ms(t)
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderAblationScheme formats the scheme comparison.
func RenderAblationScheme(rows []SchemeRow) string {
	s := "Ablation: RCE (cross-app, keyless) vs single-key basic design\n"
	s += fmt.Sprintf("%-10s %12s %12s %12s %12s\n",
		"Size(KB)", "RCE enc(ms)", "1key enc(ms)", "RCE dec(ms)", "1key dec(ms)")
	for _, r := range rows {
		s += fmt.Sprintf("%-10d %12.3f %12.3f %12.3f %12.3f\n",
			r.SizeBytes/1024, r.RCEEncMS, r.SingleEncMS, r.RCEDecMS, r.SingleDecMS)
	}
	return s
}

// ObliviousRow compares GET latency of the hash-map dictionary with
// the access-pattern-oblivious linear-scan dictionary at one store
// size.
type ObliviousRow struct {
	Entries              int
	PlainMS, ObliviousMS float64
}

// AblationOblivious quantifies the cost of hiding the memory access
// pattern of lookups (the security/performance balance Section III-D
// defers to future work): plain lookups are O(1), oblivious lookups
// scan all entries.
func AblationOblivious(entryCounts []int, trials int) ([]ObliviousRow, error) {
	if len(entryCounts) == 0 {
		entryCounts = []int{100, 1000, 10000}
	}
	measure := func(n int, oblivious bool) (float64, error) {
		platform := enclave.NewPlatform(enclave.Config{SimulateCosts: true})
		storeEnc, err := platform.Create("store", []byte("store"))
		if err != nil {
			return 0, err
		}
		st, err := store.New(store.Config{Enclave: storeEnc, Oblivious: oblivious})
		if err != nil {
			return 0, err
		}
		defer st.Close()
		var owner enclave.Measurement
		mkTag := func(i int) mle.Tag {
			var t mle.Tag
			t[0], t[1], t[2] = byte(i), byte(i>>8), byte(i>>16)
			return t
		}
		for i := 0; i < n; i++ {
			if _, err := st.Put(owner, mkTag(i), mle.Sealed{
				Challenge:  []byte("challenge-16byte"),
				WrappedKey: []byte("wrappedkey16byte"),
				Blob:       []byte("small result"),
			}); err != nil {
				return 0, err
			}
		}
		const ops = 100
		t, err := timeIt(trials, func() error {
			for i := 0; i < ops; i++ {
				if _, found, err := st.Get(mkTag(i % n)); err != nil || !found {
					return fmt.Errorf("get %d: found=%v err=%v", i, found, err)
				}
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		return ms(t), nil
	}

	rows := make([]ObliviousRow, 0, len(entryCounts))
	for _, n := range entryCounts {
		plain, err := measure(n, false)
		if err != nil {
			return nil, err
		}
		obl, err := measure(n, true)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ObliviousRow{Entries: n, PlainMS: plain, ObliviousMS: obl})
	}
	return rows, nil
}

// RenderAblationOblivious formats the oblivious-lookup comparison
// (times are per 100 GETs).
func RenderAblationOblivious(rows []ObliviousRow) string {
	s := "Ablation: plain vs access-pattern-oblivious lookups (100 GETs)\n"
	s += fmt.Sprintf("%-10s %14s %16s %10s\n", "Entries", "plain(ms)", "oblivious(ms)", "slowdown")
	for _, r := range rows {
		slow := 0.0
		if r.PlainMS > 0 {
			slow = r.ObliviousMS / r.PlainMS
		}
		s += fmt.Sprintf("%-10d %14.3f %16.3f %9.1fx\n", r.Entries, r.PlainMS, r.ObliviousMS, slow)
	}
	return s
}

// BlobPlacementRow compares EPC pressure with ciphertext blobs kept
// outside the enclave (the paper's design) vs hypothetically inside.
type BlobPlacementRow struct {
	Entries                    int
	OutsideMS, InsideMS        float64
	OutsidePageFaults          int64
	InsidePageFaults           int64
	OutsideEPCBytes, InsideEPC int64
}

// AblationBlobPlacement inserts N entries with blobSize-byte
// ciphertexts into two stores: the real one (metadata-only in EPC) and
// a variant that additionally charges the blob bytes to the store
// enclave, as a blobs-in-enclave design would. It reports insertion
// time, page faults and EPC residency.
func AblationBlobPlacement(entryCounts []int, blobSize int) ([]BlobPlacementRow, error) {
	if len(entryCounts) == 0 {
		entryCounts = []int{1000, 5000, 20000}
	}
	if blobSize <= 0 {
		blobSize = 8 << 10
	}
	run := func(n int, inside bool) (float64, int64, int64, error) {
		platform := enclave.NewPlatform(enclave.Config{
			SimulateCosts: true,
			// Shrink the EPC so the experiment shows paging pressure
			// at laptop-scale entry counts.
			EPCBytes:       64 << 20,
			EPCUsableBytes: 32 << 20,
		})
		storeEnc, err := platform.Create("store", []byte("store"))
		if err != nil {
			return 0, 0, 0, err
		}
		st, err := store.New(store.Config{Enclave: storeEnc})
		if err != nil {
			return 0, 0, 0, err
		}
		defer st.Close()
		var owner enclave.Measurement
		blob := randBytes(blobSize)

		start := time.Now()
		for i := 0; i < n; i++ {
			var tag mle.Tag
			tag[0], tag[1], tag[2] = byte(i), byte(i>>8), byte(i>>16)
			if _, err := st.Put(owner, tag, mle.Sealed{
				Challenge:  blob[:mle.ChallengeSize],
				WrappedKey: blob[:mle.KeySize],
				Blob:       blob,
			}); err != nil {
				return 0, 0, 0, err
			}
			if inside {
				// Charge the ciphertext to the enclave as a
				// blobs-inside design would.
				if err := storeEnc.Alloc(int64(blobSize)); err != nil {
					return 0, 0, 0, fmt.Errorf("inside alloc at entry %d: %w", i, err)
				}
			}
		}
		elapsed := time.Since(start)
		m := storeEnc.Metrics()
		return ms(elapsed), m.PageFaults, storeEnc.HeapUsed(), nil
	}

	rows := make([]BlobPlacementRow, 0, len(entryCounts))
	for _, n := range entryCounts {
		outMS, outPF, outEPC, err := run(n, false)
		if err != nil {
			return nil, err
		}
		row := BlobPlacementRow{
			Entries:           n,
			OutsideMS:         outMS,
			OutsidePageFaults: outPF,
			OutsideEPCBytes:   outEPC,
		}
		inMS, inPF, inEPC, err := run(n, true)
		if err != nil {
			// Blobs-inside can exhaust the EPC entirely — that IS the
			// finding; record it as an unmeasurable configuration.
			row.InsideMS = -1
			row.InsidePageFaults = -1
			row.InsideEPC = -1
		} else {
			row.InsideMS = inMS
			row.InsidePageFaults = inPF
			row.InsideEPC = inEPC
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderAblationBlobPlacement formats the blob-placement comparison;
// -1 marks configurations that exhausted the EPC.
func RenderAblationBlobPlacement(rows []BlobPlacementRow, blobSize int) string {
	s := fmt.Sprintf("Ablation: blob placement (blob = %d KB, EPC capped at 64MB/32MB usable)\n", blobSize/1024)
	s += fmt.Sprintf("%-9s %12s %12s %11s %11s %12s %12s\n",
		"Entries", "out(ms)", "in(ms)", "out-faults", "in-faults", "out-EPC(KB)", "in-EPC(KB)")
	for _, r := range rows {
		s += fmt.Sprintf("%-9d %12.2f %12.2f %11d %11d %12d %12d\n",
			r.Entries, r.OutsideMS, r.InsideMS, r.OutsidePageFaults, r.InsidePageFaults,
			r.OutsideEPCBytes/1024, r.InsideEPC/1024)
	}
	return s
}
