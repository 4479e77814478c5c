package tune

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"accelwattch/internal/faults"
	"accelwattch/internal/obs"
	"accelwattch/internal/qp"
	"accelwattch/internal/silicon"
	"accelwattch/internal/stats"
	"accelwattch/internal/trace"
)

// MeterPolicy is how the testbench reads its power meter. There are two
// policies. The clean one (the zero value, DefaultMeterPolicy) leaves every
// measurement on a fault-free meter, and so every tuned coefficient,
// bit-identical to the unhardened pipeline. The hardened one
// (HardenedMeterPolicy) trades measurement time for robustness; a session
// installs it when a fault profile is active.
//
//	                           clean   hardened
//	reads per operating point      1          5   median of the pooled samples
//	retries per read               2          4   1 ms backoff, doubling
//	quarantine after               2          3   failed operating points
//	MAD sample rejection          no      at 6σ
//	Eq. (3) fits               plain     robust   Huber / trimmed
//	failed temperature ladder  error    Coeff 0   and a quarantine report
//
// Quarantine is a report, not a filter: a quarantined workload's remaining
// points are still measured, and each stage keeps using those that succeed.
type MeterPolicy struct{ hardened bool }

// DefaultMeterPolicy is the clean-meter policy.
func DefaultMeterPolicy() MeterPolicy { return MeterPolicy{} }

// HardenedMeterPolicy is the policy for measuring through a faulty meter.
func HardenedMeterPolicy() MeterPolicy { return MeterPolicy{hardened: true} }

// retryBackoff is the wait before a read's first retry. It doubles per
// attempt: real NVML timeouts cluster, so immediate retries lose.
const retryBackoff = time.Millisecond

// repeats is the number of full measurements taken per operating point.
func (p MeterPolicy) repeats() int {
	if p.hardened {
		return 5
	}
	return 1
}

// maxRetries is how many more attempts a transiently failed read gets.
func (p MeterPolicy) maxRetries() int {
	if p.hardened {
		return 4
	}
	return 2
}

// quarantineAfter is the number of failed operating points after which a
// workload is quarantined.
func (p MeterPolicy) quarantineAfter() int {
	if p.hardened {
		return 3
	}
	return 2
}

// outlierK is the MAD multiple beyond which pooled samples are rejected
// (0 rejects none).
func (p MeterPolicy) outlierK() float64 {
	if p.hardened {
		return 6
	}
	return 0
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
// at quarantine is always exactly the policy's quarantine budget regardless
// of the order replicas hit the points, keeping the reason string
// schedule-independent.
func (tb *Testbench) noteFailure(name string) {
	mMeterFailures.Inc()
	a := tb.arts
	a.mu.Lock()
	a.failCount[name]++
	quarantined := a.failCount[name] >= tb.Policy.quarantineAfter()
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

// nonPhysical is a power reading that is NaN, infinite or not positive. It
// is as useless as a failed read, so it is retried like a transient.
type nonPhysical float64

func (w nonPhysical) Error() string {
	return fmt.Sprintf("non-physical power reading %g W", float64(w))
}

func (nonPhysical) Unwrap() error { return faults.ErrTransient }

// withRetry makes up to maxRetries+1 attempts of one meter read, with
// exponential backoff between them, and reports how many reads it spent.
// Transient errors are retried; any other error (a bad trace, a clock out of
// range) surfaces at once. Real profilers time out like power meters, so
// counter reads take the same path.
func withRetry[T any](p MeterPolicy, read func() (T, error)) (T, int, error) {
	var zero T
	backoff := retryBackoff
	attempts := 0
	var lastErr error
	for attempts <= p.maxRetries() {
		if attempts > 0 {
			mMeterRetries.Inc()
			time.Sleep(backoff)
			backoff *= 2
		}
		attempts++
		v, err := read()
		if err == nil {
			mMeterReads.Inc()
			return v, attempts, nil
		}
		if !faults.IsTransient(err) {
			return zero, attempts, err
		}
		lastErr = err
	}
	return zero, attempts, fmt.Errorf("all %d attempts failed: %w", attempts, lastErr)
}

// run is one power read of kt with retries.
func (tb *Testbench) run(kt *trace.KernelTrace) (*silicon.Measurement, int, error) {
	return withRetry(tb.Policy, func() (*silicon.Measurement, error) {
		m, err := tb.Meter.Run(kt)
		if err == nil && (math.IsNaN(m.AvgPowerW) || math.IsInf(m.AvgPowerW, 0) || m.AvgPowerW <= 0) {
			return nil, nonPhysical(m.AvgPowerW)
		}
		return m, err
	})
}

// measurePoint reads one operating point under the policy: repeated
// independent reads (each with its own retry budget), aggregated by the
// median, with MAD rejection of outlier samples under the hardened policy.
// The clean policy's single read is returned untouched, keeping the
// clean-meter path bit-identical to the historical one. attempts totals the
// meter reads spent across all repeats and retries — the ledger's
// measurement-effort record.
func (tb *Testbench) measurePoint(kt *trace.KernelTrace) (m *silicon.Measurement, attempts int, err error) {
	var good []*silicon.Measurement
	var lastErr error
	for r := 0; r < tb.Policy.repeats(); r++ {
		m, n, err := tb.run(kt)
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
	if len(good) == 1 && tb.Policy.outlierK() <= 0 {
		return good[0], attempts, nil
	}
	return aggregateMeasurements(good, tb.Policy.outlierK()), attempts, nil
}

// aggregateMeasurements pools the samples of repeated reads, rejects
// outliers at outlierK robust sigmas from the pooled median (0 rejects
// none), and reports the median of the surviving samples.
func aggregateMeasurements(ms []*silicon.Measurement, outlierK float64) *silicon.Measurement {
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
	if outlierK > 0 && len(pool) >= 4 {
		med, mad, err := stats.MAD(pool)
		if err == nil && mad > 0 {
			sigma := 1.4826 * mad
			kept := pool[:0]
			for _, s := range pool {
				if math.Abs(s-med) <= outlierK*sigma {
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
	if tb.Policy.hardened {
		return qp.FitCubicNoQuadRobust(fGHz, powerW)
	}
	return qp.FitCubicNoQuad(fGHz, powerW)
}

// fitLinear is the legacy-methodology analogue of fitCubic.
func (tb *Testbench) fitLinear(fGHz, powerW []float64) (qp.LinearFit, error) {
	if tb.Policy.hardened {
		return qp.FitLinearRobust(fGHz, powerW)
	}
	return qp.FitLinear(fGHz, powerW)
}
