// Chaos suite: tune the full AccelWattch pipeline through every fault class
// at fixed, documented seeds and assert bounded degradation.
//
// The invariants, per fault class (seeds and bounds documented in
// DESIGN.md, "Robustness & fault injection"):
//
//  1. Tune completes and returns a model — no panic, no error.
//  2. Every tuned coefficient is finite.
//  3. The SASS SIM model's validation MAPE — measured against a *clean*
//     testbench, so meter faults cannot flatter the score — stays within a
//     bounded factor of the clean-tune baseline.
//  4. Quarantined workloads are reported, not silently dropped.
//
// The tests live in package faults_test so they can drive the real tuning
// pipeline (tune imports faults; an internal test would cycle).
package faults_test

import (
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"accelwattch/internal/config"
	"accelwattch/internal/core"
	"accelwattch/internal/faults"
	"accelwattch/internal/silicon"
	"accelwattch/internal/stats"
	"accelwattch/internal/trace"
	"accelwattch/internal/tune"
	"accelwattch/internal/ubench"
)

// chaosSeed is the documented seed for the whole suite; each class offsets
// it so classes draw independent streams.
const chaosSeed = 0xACCE1

// chaosScale keeps one full Tune under ~2 s (clean) on one core so the
// suite can afford a tune per fault class. Fault behavior is scale-free.
var chaosScale = ubench.Scale{Iters: 2, Unroll: 1, WarpsPerCTA: 2}

// chaosBaseline is the shared clean-tune reference: model, testbench (whose
// caches amortise across every class's validation pass) and baseline MAPE.
var chaosBaseline struct {
	once sync.Once
	tb   *tune.Testbench
	res  *tune.Result
	mape float64
	err  error
}

func baseline(t *testing.T) (*tune.Testbench, *tune.Result, float64) {
	t.Helper()
	b := &chaosBaseline
	b.once.Do(func() {
		tb, err := tune.NewTestbench(config.Volta(), chaosScale)
		if err != nil {
			b.err = err
			return
		}
		res, err := tune.Tune(tb, tb.DefaultOptions())
		if err != nil {
			b.err = err
			return
		}
		mape, err := validationMAPE(tb, res.Model(tune.SASSSIM))
		if err != nil {
			b.err = err
			return
		}
		b.tb, b.res, b.mape = tb, res, mape
	})
	if b.err != nil {
		t.Fatalf("clean baseline: %v", b.err)
	}
	return b.tb, b.res, b.mape
}

// validationMAPE scores a model against the clean testbench's measurements
// of the full microbenchmark suite, SASS SIM variant.
func validationMAPE(clean *tune.Testbench, m *core.Model) (float64, error) {
	benches, err := ubench.Suite(clean.Arch, clean.Scale)
	if err != nil {
		return 0, err
	}
	var meas, est []float64
	for _, bench := range benches {
		w := tune.FromBench(bench)
		a, err := clean.Activity(w, tune.SASSSIM)
		if err != nil {
			return 0, err
		}
		mm, err := clean.Measure(w, 0)
		if err != nil {
			return 0, err
		}
		p, err := m.EstimatePower(a)
		if err != nil {
			return 0, err
		}
		meas = append(meas, mm.AvgPowerW)
		est = append(est, p)
	}
	return stats.MAPE(meas, est)
}

// modelFinite asserts every coefficient of a tuned model is finite.
func modelFinite(t *testing.T, m *core.Model) {
	t.Helper()
	if !stats.AllFinite(m.ConstW, m.IdleSMW, m.TempCoeff) {
		t.Fatalf("non-finite const/idle/temp: %g %g %g", m.ConstW, m.IdleSMW, m.TempCoeff)
	}
	for i := 0; i < core.NumDynComponents; i++ {
		if !stats.AllFinite(m.BaseEnergyPJ[i], m.Scale[i]) {
			t.Fatalf("non-finite energy/scale for %v", core.Component(i))
		}
	}
	for mix := core.MixCategory(0); mix < core.NumMixCategories; mix++ {
		if !stats.AllFinite(m.Div[mix].FirstLaneW, m.Div[mix].AddLaneW) {
			t.Fatalf("non-finite divergence model for %v", mix)
		}
	}
}

// TestChaosSuite tunes through each named fault class and asserts bounded
// degradation of the SASS SIM validation MAPE against the clean baseline.
// maxRatio bounds mapeFaulty / max(mapeClean, floor); the 2 W floor keeps
// the ratio meaningful when the clean baseline is very accurate.
func TestChaosSuite(t *testing.T) {
	cleanTB, _, mape0 := baseline(t)
	const floor = 2.0 // percent MAPE
	ref := math.Max(mape0, floor)

	classes := []struct {
		name     string
		maxRatio float64
	}{
		{"noisy", 2.0},
		{"quantized", 2.0},
		{"laggy", 2.5},
		{"flaky", 2.0},
		{"lossy", 2.0},
		{"stuck", 2.0},
		{"spiky", 2.0},
		{"chaos", 3.0},
	}
	for i, tc := range classes {
		tc := tc
		seed := chaosSeed + int64(i)
		t.Run(tc.name, func(t *testing.T) {
			prof, err := faults.Named(tc.name, seed)
			if err != nil {
				t.Fatal(err)
			}
			tb, err := tune.NewFaultyTestbench(config.Volta(), chaosScale, prof)
			if err != nil {
				t.Fatal(err)
			}
			res, err := tune.Tune(tb, tb.DefaultOptions())
			if err != nil {
				t.Fatalf("Tune under %q faults: %v", tc.name, err)
			}
			m := res.Model(tune.SASSSIM)
			modelFinite(t, m)

			mape, err := validationMAPE(cleanTB, m)
			if err != nil {
				t.Fatal(err)
			}
			fm, _ := tb.Meter.(*faults.FaultyMeter)
			t.Logf("%s: seed %#x, validation MAPE %.2f%% (clean %.2f%%), quarantined %d, stats %+v",
				tc.name, seed, mape, mape0, len(res.Quarantined), fm.Stats())
			if mape > tc.maxRatio*ref {
				t.Errorf("%s: MAPE %.2f%% exceeds %.1fx bound (ref %.2f%%)",
					tc.name, mape, tc.maxRatio, ref)
			}
		})
	}
}

// vetoMeter fails every Run touching a chosen kernel, deterministically —
// the reliable way to force a quarantine end to end. It counts every Run
// call, vetoed or not.
type vetoMeter struct {
	faults.Meter
	substr string
	runs   atomic.Int64
}

func (v *vetoMeter) Run(kts ...*trace.KernelTrace) (*silicon.Measurement, error) {
	v.runs.Add(1)
	for _, kt := range kts {
		if strings.Contains(kt.Kernel.Name, v.substr) {
			return nil, &faults.TransientError{Op: "run", Point: kt.Kernel.Name}
		}
	}
	return v.Meter.Run(kts...)
}

// TestQuarantineSurvivesDeadBench kills one workload's measurements
// outright, one workload per tuning stage: tuning must complete over the
// survivors and report exactly the pinned quarantine list after exactly
// the pinned number of meter runs. The run count pins which operating
// points each stage measures, so a stage that stopped measuring a
// workload's remaining points after its first failure would read lower.
func TestQuarantineSurvivesDeadBench(t *testing.T) {
	for _, tc := range []struct {
		stage, victim string
		quarantined   []string
		runs          int64
	}{
		{"constant power", "dvfs_fp_add", []string{
			"dvfs_fp_add: 3 failed operating points",
		}, 1835},
		{"divergence", "div_INT_MUL_y01", []string{
			"div-INT_MUL: y=1 static fit failed: tune: static fit INT_MUL y=1: only 0 points survived: tune: measurement failed",
			"div_INT_MUL_y01: 3 failed operating points",
		}, 1795},
		{"idle SM and temperature", "idle_intmul_80sm", []string{
			"idlesm-intmul: full-occupancy measurement failed: tune: measuring idle_intmul_80sm at 1417 MHz: all 5 attempts failed: faults: transient run error at idle_intmul_80sm (attempt 0): tune: measurement failed",
			"temperature-ladder: measurement at 65C failed: all 5 attempts failed: faults: transient run error at idle_intmul_80sm (attempt 0)",
		}, 1705},
		// A suite bench outside the DVFS, divergence and occupancy
		// ladders, so only the dynamic-tuning stage loses it.
		{"dynamic", "occ_ffma_20sm", []string{
			"occ_ffma_20sm: measurement failed; dropped from tuning set",
		}, 1695},
	} {
		t.Run(tc.victim, func(t *testing.T) {
			tb, err := tune.NewTestbench(config.Volta(), chaosScale)
			if err != nil {
				t.Fatal(err)
			}
			vm := &vetoMeter{Meter: tb.Device, substr: tc.victim}
			tb.UseMeter(vm, tune.HardenedMeterPolicy())
			res, err := tune.Tune(tb, tb.DefaultOptions())
			if err != nil {
				t.Fatalf("Tune with dead %s workload %q: %v", tc.stage, tc.victim, err)
			}
			if !slices.Equal(res.Quarantined, tc.quarantined) {
				t.Errorf("quarantine report:\n got %q\nwant %q", res.Quarantined, tc.quarantined)
			}
			if got := vm.runs.Load(); got != tc.runs {
				t.Errorf("meter runs: got %d, want %d", got, tc.runs)
			}
			modelFinite(t, res.Model(tune.SASSSIM))
		})
	}
}

// TestCleanPathBitIdentical is the acceptance criterion that matters most:
// with every injector disabled and the default meter policy, the tuned
// coefficients must be bit-for-bit what the unhardened pipeline produces.
func TestCleanPathBitIdentical(t *testing.T) {
	_, cleanRes, _ := baseline(t)

	tb, err := tune.NewTestbench(config.Volta(), chaosScale)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := faults.NewFaultyMeter(tb.Device, faults.Profile{Seed: chaosSeed})
	if err != nil {
		t.Fatal(err)
	}
	tb.UseMeter(fm, tune.DefaultMeterPolicy())
	res, err := tune.Tune(tb, tb.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	a, b := cleanRes, res
	if a.ConstPower.ConstW != b.ConstPower.ConstW {
		t.Errorf("ConstW differs: %v vs %v", a.ConstPower.ConstW, b.ConstPower.ConstW)
	}
	if a.IdleSM.PerIdleSMW != b.IdleSM.PerIdleSMW {
		t.Errorf("IdleSMW differs: %v vs %v", a.IdleSM.PerIdleSMW, b.IdleSM.PerIdleSMW)
	}
	if a.Temperature.Coeff != b.Temperature.Coeff {
		t.Errorf("TempCoeff differs: %v vs %v", a.Temperature.Coeff, b.Temperature.Coeff)
	}
	for _, v := range tune.Variants() {
		ma, mb := a.Model(v), b.Model(v)
		for i := 0; i < core.NumDynComponents; i++ {
			if ma.Scale[i] != mb.Scale[i] {
				t.Errorf("%v: scale[%v] differs: %v vs %v", v, core.Component(i), ma.Scale[i], mb.Scale[i])
			}
		}
		for mix := core.MixCategory(0); mix < core.NumMixCategories; mix++ {
			if ma.Div[mix] != mb.Div[mix] {
				t.Errorf("%v: divergence model for %v differs", v, mix)
			}
		}
	}
	if len(b.Quarantined) != 0 {
		t.Errorf("clean run quarantined %v", b.Quarantined)
	}
}
