// Package faults injects realistic measurement failure modes into the
// synthetic silicon's NVML-style power meter and Nsight-style profiler.
//
// AccelWattch's whole tuning flow (Sections 4-5) rests on hardware power
// measurements, and real meters are nothing like the perfect sensor the
// synthetic device exposes: NVML readings are noisy, quantized, low-pass
// filtered by the sensor's thermal mass, and occasionally time out, drop
// samples, or report a stale value. The FaultyMeter wraps any Meter with a
// deterministic, seedable composition of these fault classes so that the
// tuning pipeline can be exercised — and regression-tested — against them.
//
// Every fault draw is derived from the profile seed plus a hash of the
// operating point (kernel names, clock, temperature) and a per-point attempt
// counter, so runs are reproducible, repeated reads of the same operating
// point see fresh faults (which is what makes median aggregation effective),
// and results do not depend on the interleaving of different workloads.
//
// Stateful fault classes (the lag filter's EMA and the stuck sensor's stale
// value) keep their history per operating point, not globally, for the same
// reason: a reading must be a pure function of (seed, point, attempt), so
// that the concurrent execution engine can measure points in any order — or
// on any replica, via Replicate — and still produce bit-identical readings.
package faults

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"accelwattch/internal/config"
	"accelwattch/internal/obs"
	"accelwattch/internal/silicon"
	"accelwattch/internal/trace"
)

// Injected-fault telemetry, mirroring the Stats counters onto the obs
// registry so cmd/awexport can expose the live fault load. The "kind" label
// vocabulary is fixed: transient, stuck, spike, drop.
var (
	mReads    = obs.Default().Counter("aw_faults_reads_total", "Successful meter reads through the fault injector.")
	mInjected = obs.Default().CounterVec("aw_faults_injected_total", "Faults injected into meter reads, by kind.", "kind")

	mTransient = mInjected.With("transient")
	mStuck     = mInjected.With("stuck")
	mSpike     = mInjected.With("spike")
	mDrop      = mInjected.With("drop")
)

// Meter is the device surface the tuning pipeline measures through: clock
// and temperature control, trace replay with an NVML-style power reading,
// and the Nsight-style hardware profiler. *silicon.Device implements it, and
// so does *FaultyMeter, which lets fault layers stack.
type Meter interface {
	Arch() *config.Arch
	SetClock(mhz float64) error
	ResetClock()
	ClockMHz() float64
	SetTemperature(c float64)
	Temperature() float64
	Run(kts ...*trace.KernelTrace) (*silicon.Measurement, error)
	Profile(kts ...*trace.KernelTrace) (*silicon.Counters, error)
}

// Profile configures one fault composition. The zero value injects nothing
// and makes FaultyMeter a transparent pass-through (bit-identical readings).
// Rates are probabilities in [0, 1]; all draws are deterministic in Seed.
type Profile struct {
	// Seed drives every random draw. Two meters with equal profiles
	// produce identical fault sequences.
	Seed int64

	// NoiseSigma adds zero-mean Gaussian noise to each power sample as a
	// fraction of the reading (0.05 = 5% sigma), on top of the device's
	// intrinsic sample variance.
	NoiseSigma float64

	// QuantStepW rounds each sample to this step in watts, like meters
	// that report in whole watts (the K20's NVML famously did).
	QuantStepW float64

	// LagAlpha low-pass filters the sample stream with an exponential
	// moving average: reported = alpha*raw + (1-alpha)*previous. Values
	// near 0 model a sensor with large thermal mass; 0 disables, 1 is an
	// instantaneous (fault-free) sensor. The filter state persists across
	// reads of the same operating point, so repeated reads of a point see
	// a smeared history seeded by its previous reading.
	LagAlpha float64

	// ErrorRate is the probability that a whole read (Run or Profile)
	// fails with a TransientError, like an NVML timeout or a profiler
	// connection drop.
	ErrorRate float64

	// DropRate is the probability that each individual power sample is
	// lost. If every sample of a read drops, the read fails transiently.
	DropRate float64

	// StuckRate is the probability that a read reports the meter's
	// previous reading of the same operating point instead of a fresh one
	// (a stuck/stale sensor).
	StuckRate float64

	// SpikeRate is the probability that each sample is multiplied by
	// SpikeFactor — the occasional wild outlier real NVML logs show.
	SpikeRate   float64
	SpikeFactor float64

	// ReadLatency is the wall-clock cost of one power measurement — the
	// seconds of looped-kernel NVML sampling a real rig spends per
	// operating point (Section 4.1). It only sleeps; readings are
	// untouched, so it does not count as a fault for Enabled and does not
	// trigger the hardened measurement policy. It exists to make the
	// execution engine's latency-hiding measurable.
	ReadLatency time.Duration
}

// Enabled reports whether the profile injects any fault at all.
func (p Profile) Enabled() bool {
	return p.NoiseSigma > 0 || p.QuantStepW > 0 || p.LagAlpha > 0 ||
		p.ErrorRate > 0 || p.DropRate > 0 || p.StuckRate > 0 || p.SpikeRate > 0
}

// Validate rejects rates outside [0, 1] and non-finite knobs.
func (p Profile) Validate() error {
	rates := map[string]float64{
		"ErrorRate": p.ErrorRate, "DropRate": p.DropRate,
		"StuckRate": p.StuckRate, "SpikeRate": p.SpikeRate, "LagAlpha": p.LagAlpha,
	}
	names := make([]string, 0, len(rates))
	for n := range rates {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := rates[n]
		if math.IsNaN(v) || v < 0 || v > 1 {
			return fmt.Errorf("faults: %s %g outside [0, 1]", n, v)
		}
	}
	for n, v := range map[string]float64{
		"NoiseSigma": p.NoiseSigma, "QuantStepW": p.QuantStepW, "SpikeFactor": p.SpikeFactor,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("faults: %s %g must be finite and non-negative", n, v)
		}
	}
	if p.SpikeRate > 0 && p.SpikeFactor == 0 {
		return fmt.Errorf("faults: SpikeRate set with zero SpikeFactor")
	}
	return nil
}

// Named returns a predefined profile by name, for CLI flags and experiment
// scripts. Recognised names: "off" (or "clean", ""), "noisy", "quantized",
// "laggy", "flaky", "lossy", "stuck", "spiky" and "chaos" (all of the above
// at once).
func Named(name string, seed int64) (Profile, error) {
	switch name {
	case "", "off", "clean":
		return Profile{Seed: seed}, nil
	case "noisy":
		return Profile{Seed: seed, NoiseSigma: 0.05}, nil
	case "quantized":
		return Profile{Seed: seed, QuantStepW: 2}, nil
	case "laggy":
		return Profile{Seed: seed, LagAlpha: 0.3}, nil
	case "flaky":
		return Profile{Seed: seed, ErrorRate: 0.05}, nil
	case "lossy":
		return Profile{Seed: seed, DropRate: 0.25}, nil
	case "stuck":
		return Profile{Seed: seed, StuckRate: 0.03}, nil
	case "spiky":
		return Profile{Seed: seed, SpikeRate: 0.01, SpikeFactor: 3}, nil
	case "chaos":
		return Profile{
			Seed: seed, NoiseSigma: 0.03, QuantStepW: 1, LagAlpha: 0.5,
			ErrorRate: 0.03, DropRate: 0.10, StuckRate: 0.01,
			SpikeRate: 0.01, SpikeFactor: 3,
		}, nil
	}
	return Profile{}, fmt.Errorf("faults: unknown profile %q (have %v)", name, Names())
}

// Names lists the predefined profile names accepted by Named.
func Names() []string {
	return []string{"off", "noisy", "quantized", "laggy", "flaky", "lossy", "stuck", "spiky", "chaos"}
}

// ErrTransient marks read failures that a retry may clear. Use errors.Is
// (or IsTransient) to detect it through wrapping.
var ErrTransient = errors.New("faults: transient meter error")

// TransientError is a single failed meter read.
type TransientError struct {
	Op      string // "run" or "profile"
	Point   string // operating-point key
	Attempt int64
}

func (e *TransientError) Error() string {
	return fmt.Sprintf("faults: transient %s error at %s (attempt %d)", e.Op, e.Point, e.Attempt)
}

func (e *TransientError) Unwrap() error { return ErrTransient }

// IsTransient reports whether err is (or wraps) a transient meter error.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// Stats counts the faults a meter has injected, for reporting and tests.
type Stats struct {
	Reads           int64 // successful power reads
	TransientErrors int64
	StuckReads      int64
	Spikes          int64 // individual spiked samples
	DroppedSamples  int64
}

// FaultyMeter wraps a Meter with the fault composition of a Profile. Its
// mutable fault state — attempt counters, per-point last readings, fault
// statistics — lives in a meterState shared by every replica (see
// Replicate), so a pool of replicas injects faults exactly as one meter
// would. All of that state is keyed by operating point, never by call
// order, which is what keeps concurrent measurement bit-identical to
// sequential.
type FaultyMeter struct {
	inner Meter
	prof  Profile
	st    *meterState
}

// meterState is the cross-replica fault state. attempts and last are keyed
// by operating point; a point's reads are serialised by the artifact
// store's singleflight above this layer, so per-key sequences (attempt
// numbers, lag history) advance deterministically under any scheduling.
type meterState struct {
	mu       sync.Mutex
	attempts map[string]int64
	last     map[string]float64 // previous successful reading per point
	stats    Stats
}

// NewFaultyMeter wraps a meter. The profile must validate.
func NewFaultyMeter(inner Meter, prof Profile) (*FaultyMeter, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	return &FaultyMeter{
		inner: inner,
		prof:  prof,
		st:    &meterState{attempts: make(map[string]int64), last: make(map[string]float64)},
	}, nil
}

// Replicate returns a meter that injects the same fault composition around
// a different inner meter — typically a replica of the wrapped device —
// while sharing all fault state with the original. Readings depend only on
// the operating point, so replicas and the original are interchangeable.
func (f *FaultyMeter) Replicate(inner Meter) *FaultyMeter {
	return &FaultyMeter{inner: inner, prof: f.prof, st: f.st}
}

// Inner returns the wrapped meter.
func (f *FaultyMeter) Inner() Meter { return f.inner }

// Stats returns a snapshot of the injected-fault counters, aggregated
// across all replicas sharing this meter's state.
func (f *FaultyMeter) Stats() Stats {
	f.st.mu.Lock()
	defer f.st.mu.Unlock()
	return f.st.stats
}

// Pass-through device control.
func (f *FaultyMeter) Arch() *config.Arch         { return f.inner.Arch() }
func (f *FaultyMeter) SetClock(mhz float64) error { return f.inner.SetClock(mhz) }
func (f *FaultyMeter) ResetClock()                { f.inner.ResetClock() }
func (f *FaultyMeter) ClockMHz() float64          { return f.inner.ClockMHz() }
func (f *FaultyMeter) SetTemperature(c float64)   { f.inner.SetTemperature(c) }
func (f *FaultyMeter) Temperature() float64       { return f.inner.Temperature() }

// pointKey identifies one operating point: the same composition the device
// uses to seed its intrinsic sample noise.
func (f *FaultyMeter) pointKey(op string, kts []*trace.KernelTrace) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%.1f|%.1f", op, f.inner.Arch().Name, f.inner.ClockMHz(), f.inner.Temperature())
	for _, kt := range kts {
		fmt.Fprintf(h, "|%s|%d", kt.Kernel.Name, len(kt.Warps))
	}
	return fmt.Sprintf("%s:%016x", op, h.Sum64())
}

// rng derives the deterministic stream for one (point, attempt) pair.
func (f *FaultyMeter) rng(key string, attempt int64) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d", key, attempt)
	return rand.New(rand.NewSource(f.prof.Seed ^ int64(h.Sum64())))
}

// nextAttempt bumps and returns the per-point attempt counter.
func (f *FaultyMeter) nextAttempt(key string) int64 {
	f.st.mu.Lock()
	defer f.st.mu.Unlock()
	f.st.attempts[key]++
	return f.st.attempts[key]
}

// Run replays the traces on the wrapped meter and passes the measurement
// through the fault pipeline: whole-read faults first (transient error,
// stuck sensor), then per-sample faults (noise, spikes, lag, quantization,
// drops) in physical order — the spike corrupts the sensor input, the lag
// filter smears it, the quantizer formats it, and the transport drops it.
func (f *FaultyMeter) Run(kts ...*trace.KernelTrace) (*silicon.Measurement, error) {
	if f.prof.ReadLatency > 0 {
		time.Sleep(f.prof.ReadLatency)
	}
	if !f.prof.Enabled() {
		return f.inner.Run(kts...)
	}
	key := f.pointKey("run", kts)
	attempt := f.nextAttempt(key)
	rng := f.rng(key, attempt)

	if f.prof.ErrorRate > 0 && rng.Float64() < f.prof.ErrorRate {
		f.st.mu.Lock()
		f.st.stats.TransientErrors++
		f.st.mu.Unlock()
		mTransient.Inc()
		return nil, &TransientError{Op: "run", Point: key, Attempt: attempt}
	}

	m, err := f.inner.Run(kts...)
	if err != nil {
		return nil, err
	}

	f.st.mu.Lock()
	lastW, hasLast := f.st.last[key]
	f.st.mu.Unlock()

	out := &silicon.Measurement{
		Cycles:   m.Cycles,
		RuntimeS: m.RuntimeS,
		ClockMHz: m.ClockMHz,
	}

	if f.prof.StuckRate > 0 && hasLast && rng.Float64() < f.prof.StuckRate {
		// The sensor repeats its previous reading of this point verbatim.
		for range m.Samples {
			out.Samples = append(out.Samples, lastW)
		}
		out.AvgPowerW = lastW
		f.st.mu.Lock()
		f.st.stats.StuckReads++
		f.st.stats.Reads++
		f.st.mu.Unlock()
		mStuck.Inc()
		mReads.Inc()
		return out, nil
	}

	ema := lastW
	haveEMA := hasLast
	sum := 0.0
	var spikes, dropped int64
	for _, s := range m.Samples {
		if f.prof.NoiseSigma > 0 {
			s *= 1 + f.prof.NoiseSigma*rng.NormFloat64()
		}
		if f.prof.SpikeRate > 0 && rng.Float64() < f.prof.SpikeRate {
			s *= f.prof.SpikeFactor
			spikes++
		}
		if f.prof.LagAlpha > 0 {
			if haveEMA {
				s = f.prof.LagAlpha*s + (1-f.prof.LagAlpha)*ema
			}
			ema, haveEMA = s, true
		}
		if f.prof.QuantStepW > 0 {
			s = math.Round(s/f.prof.QuantStepW) * f.prof.QuantStepW
		}
		if f.prof.DropRate > 0 && rng.Float64() < f.prof.DropRate {
			dropped++
			continue
		}
		out.Samples = append(out.Samples, s)
		sum += s
	}

	f.st.mu.Lock()
	f.st.stats.Spikes += spikes
	f.st.stats.DroppedSamples += dropped
	f.st.mu.Unlock()
	mSpike.Add(float64(spikes))
	mDrop.Add(float64(dropped))

	if len(out.Samples) == 0 {
		f.st.mu.Lock()
		f.st.stats.TransientErrors++
		f.st.mu.Unlock()
		mTransient.Inc()
		return nil, &TransientError{Op: "run", Point: key, Attempt: attempt}
	}
	out.AvgPowerW = sum / float64(len(out.Samples))

	f.st.mu.Lock()
	f.st.last[key] = out.AvgPowerW
	f.st.stats.Reads++
	f.st.mu.Unlock()
	mReads.Inc()
	return out, nil
}

// Profile replays the traces through the wrapped profiler. Counter capture
// shares the transport with the power meter, so it shares the transient
// error class; counters themselves are digital and arrive intact.
func (f *FaultyMeter) Profile(kts ...*trace.KernelTrace) (*silicon.Counters, error) {
	if f.prof.Enabled() && f.prof.ErrorRate > 0 {
		key := f.pointKey("profile", kts)
		attempt := f.nextAttempt(key)
		if f.rng(key, attempt).Float64() < f.prof.ErrorRate {
			f.st.mu.Lock()
			f.st.stats.TransientErrors++
			f.st.mu.Unlock()
			mTransient.Inc()
			return nil, &TransientError{Op: "profile", Point: key, Attempt: attempt}
		}
	}
	return f.inner.Profile(kts...)
}

// Compile-time checks: both the device and the wrapper satisfy Meter.
var (
	_ Meter = (*silicon.Device)(nil)
	_ Meter = (*FaultyMeter)(nil)
)
