package accelwattch

// Ablation benchmarks: each removes one of AccelWattch's design elements
// (the contributions DESIGN.md calls out) and measures how much accuracy it
// was buying. These have no direct counterpart figure in the paper; they
// quantify the claims of Sections 4.2-4.6 on this testbed.

import (
	"fmt"
	"testing"

	"accelwattch/internal/core"
	"accelwattch/internal/qp"
	"accelwattch/internal/stats"
	"accelwattch/internal/tune"
	"accelwattch/internal/ubench"
)

// BenchmarkAblationHalfWarpModel replaces the per-mix half-warp/linear
// selection with linear-only models and measures the error on the INT_MUL
// divergence sweep — the regime Figure 4a shows the sawtooth in.
func BenchmarkAblationHalfWarpModel(b *testing.B) {
	sess := benchSession(b)
	tb := sess.Testbench()
	full := sess.Model(SASSSIM)
	linearOnly := *full
	for i := range linearOnly.Div {
		d := linearOnly.Div[i]
		// Refit the same endpoints without the half-warp form.
		linearOnly.Div[i] = core.FitDivModel(d.FirstLaneW, d.ChipStaticW(32), false)
	}

	var fullMAPE, ablMAPE float64
	for it := 0; it < b.N; it++ {
		var meas, estFull, estAbl []float64
		for y := 17; y <= 31; y += 2 {
			w := tune.FromBench(ubench.DivergenceBench(tb.Arch, tb.Scale, core.MixIntMul, y))
			m, err := tb.Measure(w, 0)
			if err != nil {
				b.Fatal(err)
			}
			a, err := tb.Activity(w, SASSSIM)
			if err != nil {
				b.Fatal(err)
			}
			pf, err := full.EstimatePower(a)
			if err != nil {
				b.Fatal(err)
			}
			pa, err := linearOnly.EstimatePower(a)
			if err != nil {
				b.Fatal(err)
			}
			meas = append(meas, m.AvgPowerW)
			estFull = append(estFull, pf)
			estAbl = append(estAbl, pa)
		}
		var err error
		if fullMAPE, err = stats.MAPE(meas, estFull); err != nil {
			b.Fatal(err)
		}
		if ablMAPE, err = stats.MAPE(meas, estAbl); err != nil {
			b.Fatal(err)
		}
	}
	printOnce("abl-halfwarp", func() {
		fmt.Printf("\nAblation(half-warp): INT_MUL divergence sweep y=17..31: full %.2f%% vs linear-only %.2f%%\n",
			fullMAPE, ablMAPE)
	})
	b.ReportMetric(fullMAPE, "fullMAPE%")
	b.ReportMetric(ablMAPE, "linearOnlyMAPE%")
}

// BenchmarkAblationIdleSM removes the idle-SM term (Section 4.6) and
// validates on the partial-occupancy subset of the validation suite.
func BenchmarkAblationIdleSM(b *testing.B) {
	sess := benchSession(b)
	tb := sess.Testbench()
	full := sess.Model(SASSSIM)
	noIdle := *full
	noIdle.IdleSMW = 0

	suite, err := sess.ValidationSuite()
	if err != nil {
		b.Fatal(err)
	}
	var fullMAPE, ablMAPE float64
	for it := 0; it < b.N; it++ {
		var meas, estFull, estAbl []float64
		for i := range suite {
			k := &suite[i]
			if k.Kernel.Grid.X >= tb.Arch.NumSMs {
				continue // full-occupancy kernels are unaffected
			}
			w := tune.Workload{Name: k.Name, Kernel: k.Kernel, Setup: k.Setup}
			m, err := tb.Measure(w, 0)
			if err != nil {
				b.Fatal(err)
			}
			a, err := tb.Activity(w, SASSSIM)
			if err != nil {
				b.Fatal(err)
			}
			pf, _ := full.EstimatePower(a)
			pa, _ := noIdle.EstimatePower(a)
			meas = append(meas, m.AvgPowerW)
			estFull = append(estFull, pf)
			estAbl = append(estAbl, pa)
		}
		fullMAPE, _ = stats.MAPE(meas, estFull)
		ablMAPE, _ = stats.MAPE(meas, estAbl)
	}
	printOnce("abl-idlesm", func() {
		fmt.Printf("\nAblation(idle-SM): partial-occupancy kernels: full %.2f%% vs no-idle-term %.2f%%\n",
			fullMAPE, ablMAPE)
	})
	b.ReportMetric(fullMAPE, "fullMAPE%")
	b.ReportMetric(ablMAPE, "noIdleMAPE%")
}

// BenchmarkAblationLegacyConstPower swaps the Eq. (3) constant-power
// estimate for the legacy linear-extrapolation estimate (the GPUWattch
// methodology Section 4.2 retires) and validates on the full suite.
func BenchmarkAblationLegacyConstPower(b *testing.B) {
	sess := benchSession(b)
	full := sess.Model(SASSSIM)
	legacy := *full
	legacy.ConstW = sess.Tuned().ConstPower.LegacyConstW

	suite, err := sess.ValidationSuite()
	if err != nil {
		b.Fatal(err)
	}
	tb := sess.Testbench()
	var fullMAPE, ablMAPE float64
	for it := 0; it < b.N; it++ {
		var meas, estFull, estAbl []float64
		for i := range suite {
			k := &suite[i]
			w := tune.Workload{Name: k.Name, Kernel: k.Kernel, Setup: k.Setup}
			m, err := tb.Measure(w, 0)
			if err != nil {
				b.Fatal(err)
			}
			a, err := tb.Activity(w, SASSSIM)
			if err != nil {
				b.Fatal(err)
			}
			pf, _ := full.EstimatePower(a)
			pa, _ := legacy.EstimatePower(a)
			meas = append(meas, m.AvgPowerW)
			estFull = append(estFull, pf)
			estAbl = append(estAbl, pa)
		}
		fullMAPE, _ = stats.MAPE(meas, estFull)
		ablMAPE, _ = stats.MAPE(meas, estAbl)
	}
	printOnce("abl-const", func() {
		fmt.Printf("\nAblation(const power): full suite: Eq.(3) const %.2f%% vs legacy linear const %.2f%%\n",
			fullMAPE, ablMAPE)
	})
	b.ReportMetric(fullMAPE, "fullMAPE%")
	b.ReportMetric(ablMAPE, "legacyConstMAPE%")
}

// BenchmarkAblationUnconstrainedQP re-tunes the SASS SIM dynamic model
// without Eq. (14)'s ordering constraints and reports both training fits —
// the constraints guard against unrealistic per-unit energies at little
// accuracy cost.
func BenchmarkAblationUnconstrainedQP(b *testing.B) {
	sess := benchSession(b)
	tb := sess.Testbench()
	benches, err := ubench.Suite(tb.Arch, benchScale())
	if err != nil {
		b.Fatal(err)
	}
	samples := make([]tune.Sample, len(benches))
	for i, bench := range benches {
		w := tune.FromBench(bench)
		m, err := tb.Measure(w, 0)
		if err != nil {
			b.Fatal(err)
		}
		samples[i] = tune.Sample{Name: bench.Name, PowerW: m.AvgPowerW}
		if samples[i].Activity, err = tb.Activity(w, SASSSIM); err != nil {
			b.Fatal(err)
		}
	}
	skeleton := *sess.Model(SASSSIM)
	for i := range skeleton.Scale {
		skeleton.Scale[i] = 0
	}

	var conMAPE, unconMAPE float64
	var violations int
	for it := 0; it < b.N; it++ {
		opts := qp.DefaultOptions()
		best, _, err := tb.TuneDynamic(samples, tune.SASSSIM, &skeleton, opts)
		if err != nil {
			b.Fatal(err)
		}
		conMAPE = best.TrainMAPE

		// Unconstrained: rebuild with empty order constraints by
		// widening every ratio beyond reach.
		saved := core.OrderConstraints
		core.OrderConstraints = nil
		bestU, _, err := tb.TuneDynamic(samples, tune.SASSSIM, &skeleton, opts)
		core.OrderConstraints = saved
		if err != nil {
			b.Fatal(err)
		}
		unconMAPE = bestU.TrainMAPE

		violations = 0
		m := skeleton
		m.Scale = bestU.Scale
		for _, oc := range saved {
			if m.EffectiveEnergyPJ(oc[0]) > m.EffectiveEnergyPJ(oc[1])*(1+1e-9) {
				violations++
			}
		}
	}
	printOnce("abl-qp", func() {
		fmt.Printf("\nAblation(QP constraints): train MAPE constrained %.2f%% vs unconstrained %.2f%%; "+
			"unconstrained model violates %d of %d ordering relations\n",
			conMAPE, unconMAPE, violations, len(core.OrderConstraints))
	})
	b.ReportMetric(conMAPE, "constrainedMAPE%")
	b.ReportMetric(unconMAPE, "unconstrainedMAPE%")
	b.ReportMetric(float64(violations), "violations")
}

// BenchmarkAblationNativePascalTuning tests the paper's Section 7.1 remark
// that "if we directly tuned models for these GPUs they would likely result
// in more accurate models": tune natively on the Pascal testbench and
// compare against the retargeted Volta model.
func BenchmarkAblationNativePascalTuning(b *testing.B) {
	volta := benchSession(b)
	var retargetMAPE, nativeMAPE float64
	for it := 0; it < b.N; it++ {
		cs, err := volta.CaseStudy(Pascal())
		if err != nil {
			b.Fatal(err)
		}
		retargetMAPE = cs.SASS.MAPE

		native, err := SharedSession(Pascal(), benchScale())
		if err != nil {
			b.Fatal(err)
		}
		nr, err := native.Validate(SASSSIM)
		if err != nil {
			b.Fatal(err)
		}
		nativeMAPE = nr.MAPE
	}
	printOnce("abl-native", func() {
		fmt.Printf("\nAblation(native tuning): Pascal SASS MAPE retargeted-Volta %.2f%% vs natively-tuned %.2f%%\n",
			retargetMAPE, nativeMAPE)
	})
	b.ReportMetric(retargetMAPE, "retargetMAPE%")
	b.ReportMetric(nativeMAPE, "nativeMAPE%")
}
