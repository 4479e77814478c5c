package tune

import (
	"context"
	"fmt"

	"accelwattch/internal/core"
	"accelwattch/internal/obs"
	"accelwattch/internal/qp"
	"accelwattch/internal/ubench"
)

// Options configures the full tuning flow.
type Options struct {
	Sweep FreqSweep  // DVFS ladder for constant-power estimation
	QP    qp.Options // quadratic-programming solver settings

	// Workers is the execution-engine pool size. Values < 1 mean 1
	// (sequential), which is also the safe default for testbenches with
	// custom meters that cannot be replicated. Results are bit-identical
	// at every worker count.
	Workers int
}

// DefaultOptions uses the device's full frequency range.
func (tb *Testbench) DefaultOptions() Options {
	return Options{
		Sweep: DefaultSweep(tb.Arch.MinClockMHz+65, tb.Arch.MaxClockMHz),
		QP:    qp.DefaultOptions(),
	}
}

// Result is a fully-constructed AccelWattch model set for one architecture:
// the shared constant/static/idle models plus one dynamic model per variant
// (Figure 1-(8)).
type Result struct {
	ConstPower  *ConstPowerResult
	DivFits     []DivergenceFit
	IdleSM      *IdleSMResult
	Temperature *TemperatureFit

	// Models holds the adopted (best-starting-point) model per variant.
	Models [NumVariants]*core.Model
	// BestFits and OtherFits record both starting points per variant for
	// the Section 5.4 comparison.
	BestFits  [NumVariants]*DynamicFit
	OtherFits [NumVariants]*DynamicFit

	// Quarantined reports the workloads with repeated measurement
	// failures and the workloads and stages a stage dropped or degraded
	// around ("name: reason", sorted). It is a report, not a filter: a
	// quarantined workload's successful measurements are still used.
	// Empty on a clean meter.
	Quarantined []string
}

// Model returns the tuned model for a variant.
func (r *Result) Model(v Variant) *core.Model { return r.Models[v] }

// Tune runs the complete Figure 1 flow on a testbench: constant power
// (Section 4.2), divergence-aware static models (Sections 4.3-4.5), idle-SM
// power (Section 4.6), and per-variant dynamic tuning via quadratic
// programming over the 102 microbenchmarks (Section 5). opts.Workers sets
// the execution-engine parallelism; output is identical at any setting.
func Tune(tb *Testbench, opts Options) (*Result, error) {
	ex, err := NewExec(context.Background(), tb, opts.Workers)
	if err != nil {
		return nil, err
	}
	return ex.Tune(opts)
}

// Tune runs the complete Figure 1 flow through the execution engine: each
// stage maps its measurements across the worker pool and folds them through
// its sequential fitting logic, and the per-variant dynamic tuning fans out
// one variant per worker.
func (ex *Exec) Tune(opts Options) (*Result, error) {
	tb := ex.TB()
	out := &Result{}
	tuneSpan := ex.StageSpan("tune")
	defer tuneSpan.End()

	sp := tuneSpan.Child("tune/const_power")
	cp, err := ex.EstimateConstPower(opts.Sweep)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("tune: constant power: %w", err)
	}
	out.ConstPower = cp
	obs.Emit(obs.Event{Kind: obs.KindFit, Stage: "tune/const_power",
		Coeffs: map[string]float64{"const_w": cp.ConstW, "legacy_const_w": cp.LegacyConstW}})

	sp = tuneSpan.Child("tune/divergence")
	divModels, divFits, err := ex.FitDivergenceModels()
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("tune: divergence models: %w", err)
	}
	out.DivFits = divFits
	for _, f := range divFits {
		obs.Emit(obs.Event{Kind: obs.KindFit, Stage: "tune/divergence", Detail: f.Mix.String(),
			Coeffs: map[string]float64{"first_lane_w": f.Model.FirstLaneW, "add_lane_w": f.Model.AddLaneW}})
	}

	sp = tuneSpan.Child("tune/idle_sm")
	idle, err := ex.FitIdleSM(cp.ConstW)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("tune: idle SM: %w", err)
	}
	out.IdleSM = idle
	obs.Emit(obs.Event{Kind: obs.KindFit, Stage: "tune/idle_sm",
		Coeffs: map[string]float64{"per_idle_sm_w": idle.PerIdleSMW}})

	// The temperature ladder reuses one kernel at three die temperatures —
	// inherently serial (the meter state is the variable under test), so it
	// runs on the primary replica.
	sp = tuneSpan.Child("tune/temperature")
	temp, err := tb.FitTemperature()
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("tune: temperature factor: %w", err)
	}
	out.Temperature = temp
	obs.Emit(obs.Event{Kind: obs.KindFit, Stage: "tune/temperature",
		Coeffs: map[string]float64{"coeff_per_c": temp.Coeff}})

	skeleton := &core.Model{
		Arch:         tb.Arch,
		BaseEnergyPJ: core.InitialEnergiesPJ(),
		ConstW:       cp.ConstW,
		IdleSMW:      idle.PerIdleSMW,
		Div:          divModels,
		RefSMs:       tb.Arch.NumSMs,
		TempCoeff:    temp.Coeff,
	}

	sp = tuneSpan.Child("tune/ubench_suite")
	benches, err := ubench.SuiteParallel(ex.ctx, tb.Arch, tb.Scale, ex.Workers())
	sp.End()
	if err != nil {
		return nil, err
	}

	// Sample every microbenchmark under all four variants, with its
	// base-clock measurement, so the per-variant QP systems below only
	// read the samples.
	sp = tuneSpan.Child("tune/dynamic/map")
	samples, err := Map(ex, benches, func(r *Testbench, b ubench.Bench) ([NumVariants]Sample, error) {
		return r.sampleVariants(FromBench(b))
	})
	sp.End()
	if err != nil {
		return nil, err
	}

	sp = tuneSpan.Child("tune/dynamic/fit")
	type variantFit struct{ best, other *DynamicFit }
	fits, err := Map(ex, Variants(), func(r *Testbench, v Variant) (variantFit, error) {
		vs := make([]Sample, len(samples))
		for i := range samples {
			vs[i] = samples[i][v]
		}
		best, other, err := r.TuneDynamic(vs, v, skeleton, opts.QP)
		return variantFit{best, other}, err
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	for i, v := range Variants() {
		m := *skeleton
		m.Scale = fits[i].best.Scale
		out.Models[v] = &m
		out.BestFits[v] = fits[i].best
		out.OtherFits[v] = fits[i].other
		obs.Emit(obs.Event{Kind: obs.KindFit, Stage: "tune/dynamic",
			Variant: v.String(), Detail: fits[i].best.Start.String(),
			Coeffs: map[string]float64{
				"train_mape_pct": fits[i].best.TrainMAPE,
				"objective":      fits[i].best.Objective,
				"iterations":     float64(fits[i].best.Iterations),
			}})
	}
	out.Quarantined = tb.Quarantined()
	return out, nil
}
