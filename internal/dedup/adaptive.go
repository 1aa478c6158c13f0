package dedup

import (
	"sync"
	"time"

	"speed/internal/mle"
)

// This file implements the paper's stated future direction: "an
// automatic extension to enable the application to adjust its
// deduplication strategy via dynamic analyzing the underlying
// computations during its runtime" (Section VII).
//
// The Advisor profiles each marked function online — compute cost,
// dedup-path cost, hit rate — and decides per function whether going
// through the store is worthwhile. Fast functions whose compute time is
// below the dedup overhead (the compression/BoW end of Fig. 5) are
// executed directly once enough evidence accumulates; slow functions
// (SIFT, pattern matching) keep deduplicating.

// AdaptivePolicy tunes the Advisor. The zero value is not usable; use
// DefaultAdaptivePolicy.
type AdaptivePolicy struct {
	// MinSamples is how many observations of each kind are needed
	// before the Advisor may bypass deduplication.
	MinSamples int
	// BenefitThreshold is the required expected-benefit ratio: dedup
	// stays enabled while
	//   hitRate*computeCost > BenefitThreshold*dedupOverhead.
	BenefitThreshold float64
	// Probation is how many calls a bypassed function waits before the
	// Advisor re-evaluates it (workloads change: a function may become
	// worth deduplicating when its inputs start repeating).
	Probation int
	// Alpha is the exponential-moving-average weight for new samples.
	Alpha float64
}

// DefaultAdaptivePolicy returns sensible defaults.
func DefaultAdaptivePolicy() AdaptivePolicy {
	return AdaptivePolicy{
		MinSamples:       8,
		BenefitThreshold: 1.0,
		Probation:        64,
		Alpha:            0.2,
	}
}

// funcProfile is the online profile of one marked function.
type funcProfile struct {
	computeEMA  float64 // ns, EMA of observed compute cost
	overheadEMA float64 // ns, EMA of dedup-path overhead (tag+get+crypto)
	hits        int64
	misses      int64
	samples     int

	bypassed    bool
	bypassCalls int
}

func (p *funcProfile) hitRate() float64 {
	total := p.hits + p.misses
	if total == 0 {
		return 0
	}
	return float64(p.hits) / float64(total)
}

// Advisor profiles marked functions and advises the runtime whether to
// deduplicate each call. Safe for concurrent use.
type Advisor struct {
	policy AdaptivePolicy

	mu       sync.Mutex
	profiles map[mle.FuncID]*funcProfile
}

// NewAdvisor creates an Advisor with the given policy; zero fields take
// defaults.
func NewAdvisor(policy AdaptivePolicy) *Advisor {
	d := DefaultAdaptivePolicy()
	if policy.MinSamples == 0 {
		policy.MinSamples = d.MinSamples
	}
	if policy.BenefitThreshold == 0 {
		policy.BenefitThreshold = d.BenefitThreshold
	}
	if policy.Probation == 0 {
		policy.Probation = d.Probation
	}
	if policy.Alpha == 0 {
		policy.Alpha = d.Alpha
	}
	return &Advisor{
		policy:   policy,
		profiles: make(map[mle.FuncID]*funcProfile),
	}
}

func (a *Advisor) profile(id mle.FuncID) *funcProfile {
	p, ok := a.profiles[id]
	if !ok {
		p = &funcProfile{}
		a.profiles[id] = p
	}
	return p
}

// ShouldDedup reports whether the next call of the function should go
// through the deduplication path.
func (a *Advisor) ShouldDedup(id mle.FuncID) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	p := a.profile(id)
	if !p.bypassed {
		return true
	}
	p.bypassCalls++
	if p.bypassCalls >= a.policy.Probation {
		// Probation over: give deduplication another chance.
		p.bypassed = false
		p.bypassCalls = 0
		return true
	}
	return false
}

// ObserveDedup records a deduplicated call: whether it hit, the
// measured compute cost (zero on hits) and the dedup-path overhead.
func (a *Advisor) ObserveDedup(id mle.FuncID, hit bool, computeCost, overhead time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	p := a.profile(id)
	p.samples++
	if hit {
		p.hits++
	} else {
		p.misses++
		p.computeEMA = ema(p.computeEMA, float64(computeCost.Nanoseconds()), a.policy.Alpha)
	}
	p.overheadEMA = ema(p.overheadEMA, float64(overhead.Nanoseconds()), a.policy.Alpha)

	if p.samples < a.policy.MinSamples || p.computeEMA == 0 {
		return
	}
	// Expected benefit per call: on a hit we save (compute - overhead);
	// on a miss we pay overhead on top. Dedup is worthwhile while
	// hitRate*compute exceeds the overhead (scaled by the threshold).
	expectedBenefit := p.hitRate() * p.computeEMA
	if expectedBenefit < a.policy.BenefitThreshold*p.overheadEMA {
		p.bypassed = true
		p.bypassCalls = 0
	}
}

// ObserveBypass records a direct (non-deduplicated) execution, keeping
// the compute-cost estimate fresh while bypassed.
func (a *Advisor) ObserveBypass(id mle.FuncID, computeCost time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	p := a.profile(id)
	p.computeEMA = ema(p.computeEMA, float64(computeCost.Nanoseconds()), a.policy.Alpha)
}

func ema(cur, sample, alpha float64) float64 {
	if cur == 0 {
		return sample
	}
	return (1-alpha)*cur + alpha*sample
}

// FuncReport is a snapshot of one function's adaptive profile.
type FuncReport struct {
	// ComputeMS and OverheadMS are the EMA estimates in milliseconds.
	ComputeMS, OverheadMS float64
	// HitRate is the observed store hit rate.
	HitRate float64
	// Samples counts observed deduplicated calls.
	Samples int
	// Bypassed reports whether the Advisor currently bypasses
	// deduplication for this function.
	Bypassed bool
}

// Report returns the Advisor's current view of a function.
func (a *Advisor) Report(id mle.FuncID) FuncReport {
	a.mu.Lock()
	defer a.mu.Unlock()
	p := a.profile(id)
	return FuncReport{
		ComputeMS:  p.computeEMA / 1e6,
		OverheadMS: p.overheadEMA / 1e6,
		HitRate:    p.hitRate(),
		Samples:    p.samples,
		Bypassed:   p.bypassed,
	}
}

// ExecuteAdaptive is Execute with the Advisor in the loop: when the
// Advisor decides deduplication does not pay for this function, the
// call runs the pipeline storeless — computed in the enclave with no
// store interaction, but still counted, coalesced, traced and refused
// on a closed runtime like every other call.
func (rt *Runtime) ExecuteAdaptive(a *Advisor, id mle.FuncID, input []byte, compute func([]byte) ([]byte, error)) ([]byte, Outcome, error) {
	if a == nil {
		return rt.Execute(id, input, compute)
	}
	bypass := !a.ShouldDedup(id)
	// Time the computation separately from the whole call so the dedup
	// overhead (tag, store round trip, crypto) is isolated.
	var computeCost time.Duration
	timed := func(in []byte) ([]byte, error) {
		cstart := time.Now()
		out, cerr := compute(in)
		computeCost = time.Since(cstart)
		return out, cerr
	}
	start := time.Now()
	result, outcome, err := rt.executeOne(id, input, timed, bypass)
	if err != nil {
		return nil, 0, err
	}
	switch {
	case bypass:
		// A coalesced bypass ran nothing here and has no cost to report.
		if outcome == OutcomeComputed {
			a.ObserveBypass(id, computeCost)
		}
	case outcome == OutcomeReused:
		a.ObserveDedup(id, true, 0, time.Since(start))
	default:
		a.ObserveDedup(id, false, computeCost, max(time.Since(start)-computeCost, 0))
	}
	return result, outcome, nil
}
