// Package attr is the continuous energy-attribution layer: where the rest
// of the pipeline answers "how many watts does this kernel draw right
// now", attr answers the operational chargeback question for always-on GPU
// fleets — "how many joules did each tenant spend, and how much of that
// was idle floor versus work actually done". It follows the design of
// long-running collectors like Kepler: sample per-tenant counter feeds on
// a fixed tick, evaluate each sample through core.Model.EstimateInto (the
// model's one estimate path, which allocates nothing), split the resulting
// 25-component breakdown into power domains, and integrate power over time
// into a monotone per-tenant energy ledger. The serving gateway charges its
// traffic through the same split.
//
// Determinism contract (the engine's bit-identical-parallelism contract,
// extended to streaming): a Collector's per-tenant joules totals and its
// attribution event sets are bit-identical at any worker count, with
// observability on or off, and under deterministic counter-feed chaos.
// Tenant feeds are pure functions of (seed, tenant, tick); integration is
// per-tenant sequential; and every shared-series metric update happens on
// the serial publish phase in tenant-index order, so no scheduling
// decision can reorder a floating-point accumulation.
package attr

import "accelwattch/internal/core"

// Power domains. Every sampled breakdown splits into exactly these two,
// and the split sums bit-exactly to the sample's total (TotalW below is
// *defined* as that sum): the "active" domain carries the 22 dynamic
// components plus the static power of SMs with resident work — watts the
// tenant's activity actually caused — while the "idle" domain carries the
// idle-SM (§4.6) and constant (§4.2) terms, the always-on floor a parked
// model pays just for being resident. This is the GPU-exporter
// idle/active scope split ("The Model Parking Tax") expressed on the
// AccelWattch component ledger.
const (
	DomainActive = "active"
	DomainIdle   = "idle"
)

// Sample is one tenant's evaluated sampling window, split by domain.
type Sample struct {
	ActiveW float64
	IdleW   float64
}

// TotalW is the sample's total power, defined as ActiveW+IdleW in exactly
// that order — the bit-exactness anchor every downstream sum invariant
// (ledger events, awreport's re-verification) is stated against.
func (s Sample) TotalW() float64 { return s.ActiveW + s.IdleW }

// Parked reports whether the sample is a fully-parked window: no SM holds
// resident work, so the active domain is exactly zero and every watt is
// idle floor. For such a sample the breakdown it was split from is zero
// everywhere except the idle-domain components, which makes the split a
// bit-exact identity: TotalW equals the breakdown's own total with no
// re-bracketing slack — the invariant the parked validation scenarios
// (workloads.ParkedSuite) are gated on.
func (s Sample) Parked() bool { return s.ActiveW == 0 }

// Split folds a component breakdown into the two power domains. Each
// domain sums its components left-to-right in component-index order, the
// same association Breakdown.Total uses, so the split is a pure
// re-bracketing of the total sum: active covers indices 0..CompStatic,
// idle covers CompIdleSM and CompConst.
func Split(b *core.Breakdown) Sample {
	var s Sample
	for i := 0; i <= int(core.CompStatic); i++ {
		s.ActiveW += b.Watts[i]
	}
	s.IdleW = b.Watts[core.CompIdleSM] + b.Watts[core.CompConst]
	return s
}

// Accumulator integrates one tenant's power samples into joules per domain
// using the trapezoidal rule: each tick contributes 0.5*(P_prev+P_cur)*dt
// per domain. The first sample only primes the previous-power state (an
// integral needs two endpoints), so a feed of n samples integrates n-1
// intervals. Totals are monotone non-decreasing by construction — power
// samples and tick lengths are non-negative — which is what lets the
// exported series be Prometheus counters.
type Accumulator struct {
	// ActiveJ and IdleJ are the integrated joules per domain since the
	// accumulator was created (or last drained by a caller snapshotting
	// deltas itself).
	ActiveJ float64
	IdleJ   float64

	prev   Sample
	primed bool
}

// Add integrates one sample over a tick of dtS seconds.
func (a *Accumulator) Add(dtS float64, s Sample) {
	if !a.primed {
		a.prev, a.primed = s, true
		return
	}
	a.ActiveJ += 0.5 * (a.prev.ActiveW + s.ActiveW) * dtS
	a.IdleJ += 0.5 * (a.prev.IdleW + s.IdleW) * dtS
	a.prev = s
}

// TotalJ is the accumulated total, defined as ActiveJ+IdleJ in exactly
// that order (see Sample.TotalW).
func (a *Accumulator) TotalJ() float64 { return a.ActiveJ + a.IdleJ }
