// Package eval runs the paper's evaluation: Volta validation across the
// four AccelWattch variants (Figures 7-9), the Pascal/Turing design-space
// case studies (Figures 10-12), the DeepBench case study (Figure 13), and
// the GPUWattch baseline comparison (Section 7.3).
package eval

import (
	"fmt"
	"math"

	"accelwattch/internal/core"
	"accelwattch/internal/obs"
	"accelwattch/internal/stats"
	"accelwattch/internal/tune"
	"accelwattch/internal/workloads"
)

// Evaluation telemetry: per-variant validation volume and error
// distributions. Buckets are absolute-percent error levels chosen around
// the paper's reported MAPEs (7.5-14%), so the histogram resolves both the
// expected regime and regressions well beyond it.
var (
	mKernels = obs.Default().CounterVec("aw_eval_kernels_total",
		"Kernels validated against silicon, by variant.", "variant")
	mAbsErrPct = obs.Default().HistogramVec("aw_eval_abs_err_pct",
		"Per-kernel absolute relative error of estimated power, in percent.",
		[]float64{1, 2, 5, 10, 15, 20, 30, 50, 75, 100}, "variant")
	mMAPE = obs.Default().GaugeVec("aw_eval_mape_pct",
		"MAPE of the most recent validation run, by variant.", "variant")

	// mComponentW is the power-attribution family: mean estimated watts per
	// model component over the most recent validation run. Cardinality is
	// bounded by construction at NumComponents (25) x NumVariants (4) = 100
	// series; per-kernel attribution carries unbounded names and therefore
	// goes to the ledger (KindBreakdown events), never to labels.
	mComponentW = obs.Default().GaugeVec("aw_component_power_watts",
		"Mean estimated component power over the most recent validation run, by component and variant.",
		"component", "variant")
)

// KernelResult is one kernel's measured-versus-estimated comparison.
type KernelResult struct {
	Name       string
	MeasuredW  float64
	EstimatedW float64
	Breakdown  core.Breakdown

	// Category carries the inference-pack behavioural class the kernel was
	// tagged with (empty for the classic Table 4 suite); ValidateByCategory
	// groups on it.
	Category workloads.Category
}

// RelErrPct returns the signed relative error in percent. A degenerate
// zero-measured kernel reports NaN ("no defined error") rather than an
// infinity that would poison downstream aggregates.
func (k *KernelResult) RelErrPct() float64 {
	if k.MeasuredW == 0 {
		return math.NaN()
	}
	return 100 * (k.EstimatedW - k.MeasuredW) / k.MeasuredW
}

// EstimateOne evaluates a model over one activity vector and packages the
// outcome as a KernelResult: EstimatedW is the breakdown total, so the
// attribution invariant (components sum bit-identically to the reported
// power) holds by construction. This is the single-shot estimation path —
// the validation loop below and the serving layer (internal/serve) both go
// through it, which is what makes a served estimate provably the same
// computation awvalidate performs. The breakdown is written in place by
// Model.EstimateInto.
func EstimateOne(model *core.Model, name string, measuredW float64, a core.Activity) (KernelResult, error) {
	kr := KernelResult{Name: name, MeasuredW: measuredW}
	if err := model.EstimateInto(&a, &kr.Breakdown); err != nil {
		return KernelResult{}, fmt.Errorf("eval: %s: %w", name, err)
	}
	kr.EstimatedW = kr.Breakdown.Total()
	return kr, nil
}

// ValidationResult aggregates one variant's run over a suite.
type ValidationResult struct {
	Variant tune.Variant
	Kernels []KernelResult
	MAPE    float64
	CI95    float64
	MaxAPE  float64
	Pearson float64
}

// inSuite reports whether a kernel participates in the given variant's
// validation suite (Section 6.1's exclusions).
func inSuite(k *workloads.Kernel, v tune.Variant) bool {
	switch v {
	case tune.PTXSIM:
		return k.ForVariantPTX()
	case tune.HW, tune.HYBRID:
		return k.ForVariantHW()
	default:
		return true
	}
}

// ValidateExec runs the model over the validation suite under one variant
// and compares against silicon measurements (the Figure 7 experiment). Each
// launched kernel is measured and its activity extracted across the
// engine's pool first; the comparison then reads those samples in suite
// order, so the result is identical at every worker count.
func ValidateExec(ex *tune.Exec, model *core.Model, v tune.Variant, suite []workloads.Kernel) (*ValidationResult, error) {
	sp := ex.StageSpan("eval/validate").WithDetail(v.String())
	defer sp.End()
	var launched []tune.Workload
	for i := range suite {
		if k := &suite[i]; inSuite(k, v) && k.SyntheticActivity == nil {
			launched = append(launched, tune.Workload{Name: k.Name, Kernel: k.Kernel, Setup: k.Setup})
		}
	}
	samples, err := tune.Map(ex, launched, func(r *tune.Testbench, w tune.Workload) (tune.Sample, error) {
		return sampleKernel(r, w, v)
	})
	if err != nil {
		return nil, err
	}

	tb := ex.TB()
	res := &ValidationResult{Variant: v}
	kernelsDone := mKernels.With(v.String())
	errHist := mAbsErrPct.With(v.String())
	led := obs.ActiveLedger()
	if err := model.Validate(); err != nil {
		return nil, fmt.Errorf("eval: variant %v: %w", v, err)
	}
	var meas, est []float64
	var compSum [core.NumComponents]float64
	for i := range suite {
		k := &suite[i]
		if !inSuite(k, v) {
			continue
		}
		var measuredW float64
		var a core.Activity
		if k.SyntheticActivity != nil {
			// A fully-parked scenario: nothing to launch or simulate. The
			// measured side is the device's idle NVML reading (Figure 3's
			// first bar) and the activity vector is the entry's own — both
			// variant-independent and deterministic, so the worker pool
			// has nothing to sample.
			measuredW = tb.Device.MeasureIdle().AvgPowerW
			a = *k.SyntheticActivity
		} else {
			s := samples[0]
			samples = samples[1:]
			if s.PowerErr != nil {
				return nil, s.PowerErr
			}
			if s.ActErr != nil {
				return nil, s.ActErr
			}
			measuredW, a = s.PowerW, s.Activity
		}
		kr, err := EstimateOne(model, k.Name, measuredW, a)
		if err != nil {
			return nil, err
		}
		kr.Category = k.Category
		bd := kr.Breakdown
		res.Kernels = append(res.Kernels, kr)
		meas = append(meas, kr.MeasuredW)
		est = append(est, kr.EstimatedW)
		for c := 0; c < core.NumComponents; c++ {
			compSum[c] += bd.Watts[c]
		}
		if led != nil {
			// The nil guard skips building the 25-entry map on
			// ledger-less runs; EstimatedW is bd.Total(), so every
			// breakdown event provably sums to its reported power.
			led.Emit(obs.Event{Kind: obs.KindBreakdown, Stage: "eval/validate",
				Workload: k.Name, Variant: v.String(), Category: string(k.Category),
				PowerW: kr.EstimatedW, MeasuredW: kr.MeasuredW, Breakdown: bd.Map()})
		}
		kernelsDone.Inc()
		errHist.Observe(math.Abs(kr.RelErrPct()))
	}
	if len(meas) == 0 {
		return nil, fmt.Errorf("eval: empty suite for variant %v", v)
	}
	for c := 0; c < core.NumComponents; c++ {
		mComponentW.With(core.Component(c).String(), v.String()).Set(compSum[c] / float64(len(meas)))
	}
	res.MAPE, res.CI95, err = stats.MAPEWithCI(meas, est)
	if err != nil {
		return nil, err
	}
	if res.MaxAPE, err = stats.MaxAPE(meas, est); err != nil {
		return nil, err
	}
	if res.Pearson, err = stats.Pearson(meas, est); err != nil {
		return nil, err
	}
	mMAPE.With(v.String()).Set(res.MAPE)
	return res, nil
}

// ValidateAllExec runs all four variants over the suite (Figure 7). Each
// kernel is measured on silicon exactly once — the artifact store shares
// the measurement across all four variants.
func ValidateAllExec(ex *tune.Exec, tuned *tune.Result, suite []workloads.Kernel) (map[tune.Variant]*ValidationResult, error) {
	out := make(map[tune.Variant]*ValidationResult, tune.NumVariants)
	for _, v := range tune.Variants() {
		r, err := ValidateExec(ex, tuned.Model(v), v, suite)
		if err != nil {
			return nil, fmt.Errorf("eval: variant %v: %w", v, err)
		}
		out[v] = r
	}
	return out, nil
}

// sampleKernel is the validation map step for one launched kernel: its
// base-clock measurement, then, if that succeeded, its activity under v.
// Only a hard error is returned as an error; the fold aborts on a
// measurement failure.
func sampleKernel(tb *tune.Testbench, w tune.Workload, v tune.Variant) (tune.Sample, error) {
	s := tune.Sample{Name: w.Name}
	m, err := tb.Measure(w, 0)
	if err != nil {
		if !tune.IsMeasurementFailure(err) {
			return s, err
		}
		s.PowerErr = err
		return s, nil
	}
	s.PowerW = m.AvgPowerW
	if s.Activity, err = tb.Activity(w, v); err != nil && !tune.IsMeasurementFailure(err) {
		return s, err
	}
	s.ActErr = err
	return s, nil
}
