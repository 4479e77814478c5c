package tune

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"accelwattch/internal/config"
	"accelwattch/internal/faults"
	"accelwattch/internal/obs"
	"accelwattch/internal/qp"
	"accelwattch/internal/silicon"
	"accelwattch/internal/stats"
	"accelwattch/internal/trace"
	"accelwattch/internal/ubench"
)

// MeterPolicy governs how the testbench reads its power meter. The default
// policy is a single read per operating point with a couple of retries — on
// a clean meter it reproduces the historical pipeline bit for bit. The
// hardened policy trades measurement time for robustness and is installed
// automatically when a fault profile is active.
type MeterPolicy struct {
	// Repeats is the number of full measurements taken per operating
	// point; the reported power is the median over the pooled samples.
	// 1 preserves single-read semantics exactly.
	Repeats int

	// MaxRetries is how many additional attempts a transiently-failed
	// read gets before the operating point is declared failed.
	MaxRetries int

	// RetryBackoff is the initial wait between retries; it doubles per
	// attempt (real NVML timeouts cluster, so immediate retries lose).
	RetryBackoff time.Duration

	// QuarantineAfter is the number of failed operating points after
	// which a workload is quarantined: reported in Result.Quarantined as
	// "N failed operating points". Quarantine is a report, not a filter —
	// the workload's remaining points are still measured, and each stage
	// keeps using those that succeed.
	QuarantineAfter int

	// Robust selects the Huber/trimmed variants of the Eq. (3) fits and
	// MAD-based rejection of outlier samples inside each measurement.
	Robust bool

	// OutlierK is the MAD multiple beyond which pooled samples are
	// rejected when Robust aggregation runs (0 disables rejection).
	OutlierK float64
}

// DefaultMeterPolicy is the clean-meter configuration: one read per point,
// two retries, no robust machinery. With a fault-free meter it leaves every
// measurement — and therefore every tuned coefficient — bit-identical to
// the unhardened pipeline.
func DefaultMeterPolicy() MeterPolicy {
	return MeterPolicy{Repeats: 1, MaxRetries: 2, RetryBackoff: time.Millisecond, QuarantineAfter: 2}
}

// HardenedMeterPolicy is the configuration for measuring through a faulty
// meter: median-of-5 reads, deeper retry budget, robust fits, and MAD
// sample rejection.
func HardenedMeterPolicy() MeterPolicy {
	return MeterPolicy{
		Repeats:         5,
		MaxRetries:      4,
		RetryBackoff:    time.Millisecond,
		QuarantineAfter: 3,
		Robust:          true,
		OutlierK:        6,
	}
}

// normalized clamps degenerate knob values so a zero policy behaves like
// the default.
func (p MeterPolicy) normalized() MeterPolicy {
	if p.Repeats < 1 {
		p.Repeats = 1
	}
	if p.MaxRetries < 0 {
		p.MaxRetries = 0
	}
	if p.QuarantineAfter < 1 {
		p.QuarantineAfter = 1
	}
	return p
}

// ErrMeasurement marks an operating point that failed all retries. Callers
// skip workloads whose errors match it (via IsMeasurementFailure) and abort
// on anything else.
var ErrMeasurement = errors.New("tune: measurement failed")

// IsMeasurementFailure reports whether err is a meter-path failure the
// tuning flow should degrade around (skip the point or the workload) rather
// than abort on.
func IsMeasurementFailure(err error) bool {
	return errors.Is(err, ErrMeasurement)
}

// UseMeter replaces the measurement path (for example with a
// faults.FaultyMeter wrapping the device) and installs a meter policy. It
// must be called before the first measurement and before any replicas are
// made; cached measurements and profiles are cleared, traces and simulation
// results are kept (they do not pass through the meter).
func (tb *Testbench) UseMeter(m faults.Meter, p MeterPolicy) {
	tb.Meter = m
	tb.Policy = p
	tb.arts.measures.Reset()
	tb.arts.profiles.Reset()
	tb.arts.mu.Lock()
	tb.arts.quarantined = make(map[string]string)
	tb.arts.failCount = make(map[string]int)
	tb.arts.mu.Unlock()
}

// NewFaultyTestbench builds a testbench whose measurements flow through a
// fault-injected meter, with the hardened meter policy installed.
func NewFaultyTestbench(arch *config.Arch, sc ubench.Scale, prof faults.Profile) (*Testbench, error) {
	tb, err := NewTestbench(arch, sc)
	if err != nil {
		return nil, err
	}
	fm, err := faults.NewFaultyMeter(tb.Device, prof)
	if err != nil {
		return nil, err
	}
	tb.UseMeter(fm, HardenedMeterPolicy())
	return tb, nil
}

// Quarantined returns the quarantined workloads and stages, sorted, as
// "name: reason" strings.
func (tb *Testbench) Quarantined() []string {
	a := tb.arts
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.quarantined))
	for name, reason := range a.quarantined {
		out = append(out, name+": "+reason)
	}
	sort.Strings(out)
	return out
}

// quarantine reports a workload or stage in Result.Quarantined, with a
// bounded reason class for the aw_tune_quarantines_total counter; only
// first insertions count, so the metric tracks distinct quarantined
// workloads/stages per class.
func (tb *Testbench) quarantine(name, reason, class string) {
	a := tb.arts
	a.mu.Lock()
	_, dup := a.quarantined[name]
	if !dup {
		a.quarantined[name] = reason
	}
	a.mu.Unlock()
	if !dup {
		mQuarantines.With(class).Inc()
		obs.Emit(obs.Event{Kind: obs.KindQuarantine, Workload: name, Reason: reason, Detail: class})
	}
}

// noteFailure counts a failed operating point against a workload and
// quarantines it once the budget is exhausted. The reason reports only the
// count — each failed point is memoised by the artifact store, so the count
// at quarantine is always exactly QuarantineAfter regardless of the order
// replicas hit the points, keeping the reason string schedule-independent.
func (tb *Testbench) noteFailure(name string, p MeterPolicy) {
	mMeterFailures.Inc()
	a := tb.arts
	a.mu.Lock()
	a.failCount[name]++
	quarantined := a.failCount[name] >= p.QuarantineAfter
	var dup bool
	var reason string
	if quarantined {
		if _, dup = a.quarantined[name]; !dup {
			reason = fmt.Sprintf("%d failed operating points", a.failCount[name])
			a.quarantined[name] = reason
		}
	}
	a.mu.Unlock()
	if quarantined && !dup {
		mQuarantines.With(qcFailedPoints).Inc()
		obs.Emit(obs.Event{Kind: obs.KindQuarantine, Workload: name, Reason: reason, Detail: qcFailedPoints})
	}
}

// runWithRetry performs one measurement attempt with transient-error
// retries and exponential backoff, reporting how many meter reads it spent.
// Non-transient errors (bad traces, clock out of range) surface immediately.
func (tb *Testbench) runWithRetry(kt *trace.KernelTrace, p MeterPolicy) (m *silicon.Measurement, attempts int, err error) {
	backoff := p.RetryBackoff
	var lastErr error
	for attempt := 0; attempt <= p.MaxRetries; attempt++ {
		if attempt > 0 {
			mMeterRetries.Inc()
			if backoff > 0 {
				time.Sleep(backoff)
				backoff *= 2
			}
		}
		attempts++
		m, err := tb.Meter.Run(kt)
		if err == nil {
			if math.IsNaN(m.AvgPowerW) || math.IsInf(m.AvgPowerW, 0) || m.AvgPowerW <= 0 {
				// A non-physical reading is as useless as a failed
				// one; retry it like a transient.
				lastErr = fmt.Errorf("non-physical power reading %g W", m.AvgPowerW)
				continue
			}
			mMeterReads.Inc()
			return m, attempts, nil
		}
		if !faults.IsTransient(err) {
			return nil, attempts, err
		}
		lastErr = err
	}
	return nil, attempts, fmt.Errorf("all %d attempts failed: %w", p.MaxRetries+1, lastErr)
}

// profileWithRetry reads hardware counters with the same transient-error
// retry discipline as power measurements (real profilers time out too).
func (tb *Testbench) profileWithRetry(kt *trace.KernelTrace, p MeterPolicy) (*silicon.Counters, error) {
	backoff := p.RetryBackoff
	var lastErr error
	for attempt := 0; attempt <= p.MaxRetries; attempt++ {
		if attempt > 0 {
			mMeterRetries.Inc()
			if backoff > 0 {
				time.Sleep(backoff)
				backoff *= 2
			}
		}
		c, err := tb.Meter.Profile(kt)
		if err == nil {
			mMeterReads.Inc()
			return c, nil
		}
		if !faults.IsTransient(err) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("all %d attempts failed: %w", p.MaxRetries+1, lastErr)
}

// measurePoint reads one operating point under the policy: Repeats
// independent reads (each with its own retry budget), aggregated by the
// median, with optional MAD rejection of outlier samples. With Repeats=1
// and no rejection the single read is returned untouched, keeping the
// clean-meter path bit-identical to the historical one. attempts totals the
// meter reads spent across all repeats and retries — the ledger's
// measurement-effort record.
func (tb *Testbench) measurePoint(kt *trace.KernelTrace, p MeterPolicy) (m *silicon.Measurement, attempts int, err error) {
	var good []*silicon.Measurement
	var lastErr error
	for r := 0; r < p.Repeats; r++ {
		m, n, err := tb.runWithRetry(kt, p)
		attempts += n
		if err != nil {
			lastErr = err
			continue
		}
		good = append(good, m)
	}
	if len(good) == 0 {
		return nil, attempts, lastErr
	}
	if len(good) == 1 && p.OutlierK <= 0 {
		return good[0], attempts, nil
	}
	return aggregateMeasurements(good, p), attempts, nil
}

// aggregateMeasurements pools the samples of repeated reads, optionally
// rejects outliers at OutlierK robust sigmas from the pooled median, and
// reports the median of the surviving samples.
func aggregateMeasurements(ms []*silicon.Measurement, p MeterPolicy) *silicon.Measurement {
	out := &silicon.Measurement{
		Cycles:   ms[0].Cycles,
		RuntimeS: ms[0].RuntimeS,
		ClockMHz: ms[0].ClockMHz,
	}
	var pool []float64
	for _, m := range ms {
		pool = append(pool, m.Samples...)
	}
	if len(pool) == 0 {
		// Degenerate: no sample detail, fall back to per-read averages.
		for _, m := range ms {
			pool = append(pool, m.AvgPowerW)
		}
	}
	if p.OutlierK > 0 && len(pool) >= 4 {
		med, mad, err := stats.MAD(pool)
		if err == nil && mad > 0 {
			sigma := 1.4826 * mad
			kept := pool[:0]
			for _, s := range pool {
				if math.Abs(s-med) <= p.OutlierK*sigma {
					kept = append(kept, s)
				}
			}
			if len(kept) > 0 {
				mSamplesRejected.Add(float64(len(pool) - len(kept)))
				pool = kept
			}
		}
	}
	out.Samples = pool
	if med, err := stats.Median(pool); err == nil {
		out.AvgPowerW = med
	}
	return out
}

// fitCubic dispatches between the plain and robust Eq. (3) fits per the
// active policy.
func (tb *Testbench) fitCubic(fGHz, powerW []float64) (qp.CubicFit, error) {
	if tb.Policy.Robust {
		return qp.FitCubicNoQuadRobust(fGHz, powerW)
	}
	return qp.FitCubicNoQuad(fGHz, powerW)
}

// fitLinear is the legacy-methodology analogue of fitCubic.
func (tb *Testbench) fitLinear(fGHz, powerW []float64) (qp.LinearFit, error) {
	if tb.Policy.Robust {
		return qp.FitLinearRobust(fGHz, powerW)
	}
	return qp.FitLinear(fGHz, powerW)
}
