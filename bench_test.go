package accelwattch

// The benchmark harness regenerates every table and figure in the paper's
// evaluation (see DESIGN.md's per-experiment index). Each benchmark prints
// the same rows/series the paper reports and exports the headline numbers
// as benchmark metrics. Absolute wattages come from the synthetic silicon,
// so the *shapes* — who wins, by what factor, where the crossovers are —
// are the quantities to compare against the paper.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Set ACCELWATTCH_BENCH_FULL=1 to run at the full workload scale.

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"accelwattch/internal/config"
	"accelwattch/internal/core"
	"accelwattch/internal/eval"
	"accelwattch/internal/tune"
	"accelwattch/internal/ubench"
	"accelwattch/internal/workloads"
)

func benchScale() Scale {
	if os.Getenv("ACCELWATTCH_BENCH_FULL") != "" {
		return Full
	}
	return Quick
}

func benchSession(b *testing.B) *Session {
	b.Helper()
	sess, err := SharedSession(Volta(), benchScale())
	if err != nil {
		b.Fatal(err)
	}
	return sess
}

var benchPrintOnce sync.Map

// printOnce emits a figure's rows a single time per process so repeated
// benchmark iterations do not flood the output.
func printOnce(key string, f func()) {
	if _, loaded := benchPrintOnce.LoadOrStore(key, true); !loaded {
		f()
	}
}

// BenchmarkFig2DVFSConstantPower regenerates Figure 2: total power versus
// core clock for the five DVFS workloads, the Eq. (3) fits, and the
// constant-power estimate from the y-intercepts.
func BenchmarkFig2DVFSConstantPower(b *testing.B) {
	sess := benchSession(b)
	tb := sess.Testbench()
	sweep := tune.DefaultSweep(tb.Arch.MinClockMHz+65, tb.Arch.MaxClockMHz)
	var res *tune.ConstPowerResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = tb.Sequential().EstimateConstPower(sweep)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("fig2", func() {
		fmt.Println("\nFig2: workload | f(GHz):P(W) series | beta tau const | fitMAPE")
		for _, c := range res.Curves {
			fmt.Printf("Fig2: %-16s", c.Name)
			for i := range c.FreqGHz {
				fmt.Printf(" %.1f:%.0f", c.FreqGHz[i], c.PowerW[i])
			}
			fmt.Printf(" | %.1f %.1f %.1f | %.2f%%\n", c.Fit.Beta, c.Fit.Tau, c.Fit.Const, c.FitMAPE)
		}
		fmt.Printf("Fig2: constant power %.2f W (paper 32.5 W); legacy linear %.2f W\n",
			res.ConstW, res.LegacyConstW)
	})
	b.ReportMetric(res.ConstW, "constW")
}

// BenchmarkFig3PowerGating regenerates Figure 3: the lane/SM activation
// ladder that exposes chip-global, SM-wide, and lane-level power gating.
func BenchmarkFig3PowerGating(b *testing.B) {
	sess := benchSession(b)
	tb := sess.Testbench()
	n := tb.Arch.NumSMs
	type rung struct {
		name       string
		sms, lanes int
	}
	rungs := []rung{
		{"1Lx1SM", 1, 1}, {"1Lx80SM", n, 1}, {"8Lx80SM", n, 8},
		{"16Lx80SM", n, 16}, {"24Lx80SM", n, 24}, {"32Lx80SM", n, 32},
	}
	powers := make([]float64, len(rungs))
	var idleW float64
	for i := 0; i < b.N; i++ {
		idleW = tb.Device.MeasureIdle().AvgPowerW
		for j, r := range rungs {
			m, err := tb.Measure(tune.FromBench(ubench.GatingBench(tb.Arch, tb.Scale, r.sms, r.lanes)), 0)
			if err != nil {
				b.Fatal(err)
			}
			powers[j] = m.AvgPowerW
		}
	}
	printOnce("fig3", func() {
		fmt.Println("\nFig3: configuration | measured power (W)")
		fmt.Printf("Fig3: %-10s %.1f\n", "InactiveChip", idleW)
		for j, r := range rungs {
			fmt.Printf("Fig3: %-10s %.1f\n", r.name, powers[j])
		}
		fmt.Printf("Fig3: 1Lx80SM / 1Lx1SM = %.2f (paper ~1.7)\n", powers[1]/powers[0])
		fmt.Printf("Fig3: 8Lx80SM / 1Lx80SM = %.2f (paper ~1.1)\n", powers[2]/powers[1])
	})
	b.ReportMetric(powers[1]/powers[0], "smRatio")
}

// BenchmarkFig4Divergence regenerates Figure 4: measured power versus
// active threads per warp for INT_MUL (sawtooth), INT_FP, and INT_FP_SFU
// (linear), plus the fitted linear/half-warp model values.
func BenchmarkFig4Divergence(b *testing.B) {
	sess := benchSession(b)
	tb := sess.Testbench()
	mixes := []core.MixCategory{core.MixIntMul, core.MixIntFP, core.MixIntFPSFU}
	lanes := []int{4, 8, 12, 16, 20, 24, 28, 32}
	series := make(map[core.MixCategory][]float64)
	for i := 0; i < b.N; i++ {
		for _, mix := range mixes {
			ps := make([]float64, 0, len(lanes))
			for _, y := range lanes {
				m, err := tb.Measure(tune.FromBench(ubench.DivergenceBench(tb.Arch, tb.Scale, mix, y)), 0)
				if err != nil {
					b.Fatal(err)
				}
				ps = append(ps, m.AvgPowerW)
			}
			series[mix] = ps
		}
	}
	var sawDepth float64
	printOnce("fig4", func() {
		fmt.Println("\nFig4: mix | power at y=4..32 step 4 (W)")
		for _, mix := range mixes {
			fmt.Printf("Fig4: %-12v", mix)
			for _, p := range series[mix] {
				fmt.Printf(" %.1f", p)
			}
			fmt.Println()
		}
	})
	sawDepth = series[core.MixIntMul][3] - series[core.MixIntMul][4] // y=16 minus y=20
	b.ReportMetric(sawDepth, "sawtoothW")
}

// BenchmarkFig5IdleSM regenerates Figure 5: measured versus modeled power
// as SMs idle.
func BenchmarkFig5IdleSM(b *testing.B) {
	sess := benchSession(b)
	tb := sess.Testbench()
	model := sess.Model(SASSSIM)
	n := tb.Arch.NumSMs
	actives := []int{n, 3 * n / 4, n / 2, n / 4, n / 8, 1}
	type row struct {
		idle      int
		meas, est float64
	}
	rows := make([]row, len(actives))
	for i := 0; i < b.N; i++ {
		for j, k := range actives {
			w := tune.FromBench(ubench.OccupancyBench(tb.Arch, tb.Scale, k))
			m, err := tb.Measure(w, 0)
			if err != nil {
				b.Fatal(err)
			}
			a, err := tb.Activity(w, SASSSIM)
			if err != nil {
				b.Fatal(err)
			}
			p, err := model.EstimatePower(a)
			if err != nil {
				b.Fatal(err)
			}
			rows[j] = row{idle: n - k, meas: m.AvgPowerW, est: p}
		}
	}
	printOnce("fig5", func() {
		fmt.Println("\nFig5: idle SMs | measured (W) | AccelWattch (W)")
		for _, r := range rows {
			fmt.Printf("Fig5: %2d %.1f %.1f\n", r.idle, r.meas, r.est)
		}
	})
	b.ReportMetric(rows[len(rows)-1].meas, "mostIdleW")
}

// BenchmarkFig6Heatmap regenerates Figure 6: the fraction of dynamic power
// each microbenchmark category spends on its target component group, as
// estimated by AccelWattch SASS SIM.
func BenchmarkFig6Heatmap(b *testing.B) {
	sess := benchSession(b)
	tb := sess.Testbench()
	model := sess.Model(SASSSIM)
	benches, err := ubench.Suite(tb.Arch, tb.Scale)
	if err != nil {
		b.Fatal(err)
	}
	shares := map[ubench.Category]map[eval.Group]float64{}
	counts := map[ubench.Category]float64{}
	for i := 0; i < b.N; i++ {
		for _, bench := range benches {
			a, err := tb.Activity(tune.FromBench(bench), SASSSIM)
			if err != nil {
				b.Fatal(err)
			}
			bd, err := model.Estimate(a)
			if err != nil {
				b.Fatal(err)
			}
			g := eval.GroupBreakdown(bd)
			dyn := bd.Dynamic()
			if dyn <= 0 {
				continue
			}
			if shares[bench.Category] == nil {
				shares[bench.Category] = map[eval.Group]float64{}
			}
			for grp := eval.Group(0); grp < eval.NumGroups; grp++ {
				// The heat-map covers dynamic components only.
				switch grp {
				case eval.GroupConst, eval.GroupStatic, eval.GroupIdleSM:
					continue
				}
				shares[bench.Category][grp] += g.Watts[grp] / dyn
			}
			counts[bench.Category]++
		}
	}
	printOnce("fig6", func() {
		fmt.Println("\nFig6: category | top dynamic component groups (share of dynamic power)")
		for cat, m := range shares {
			fmt.Printf("Fig6: %-18s", cat)
			for grp := eval.Group(0); grp < eval.NumGroups; grp++ {
				if s := m[grp] / counts[cat]; s > 0.10 {
					fmt.Printf(" %v:%.0f%%", grp, 100*s)
				}
			}
			fmt.Println()
		}
	})
	b.ReportMetric(float64(len(benches)), "ubenches")
}

// BenchmarkFig7ValidationVolta regenerates Figure 7: validation correlation
// and MAPE for all four variants on Volta.
func BenchmarkFig7ValidationVolta(b *testing.B) {
	sess := benchSession(b)
	var all map[Variant]*eval.ValidationResult
	var err error
	for i := 0; i < b.N; i++ {
		all, err = sess.ValidateAll()
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("fig7", func() {
		fmt.Println("\nFig7: variant | MAPE | 95% CI | max | pearson | kernels (paper: SASS 9.2, PTX 13.7, HW 7.5, HYBRID 8.2)")
		for _, v := range tune.Variants() {
			r := all[v]
			fmt.Printf("Fig7: %-9v %.2f%% ±%.2f %5.1f%% %.3f %d\n",
				v, r.MAPE, r.CI95, r.MaxAPE, r.Pearson, len(r.Kernels))
		}
	})
	b.ReportMetric(all[SASSSIM].MAPE, "sassMAPE%")
	b.ReportMetric(all[HW].MAPE, "hwMAPE%")
	b.ReportMetric(all[PTXSIM].MAPE, "ptxMAPE%")
}

// BenchmarkFig8Breakdown regenerates Figure 8: normalised per-component
// power breakdown averaged over the validation suite.
func BenchmarkFig8Breakdown(b *testing.B) {
	sess := benchSession(b)
	var avg eval.GroupedBreakdown
	for i := 0; i < b.N; i++ {
		res, err := sess.Validate(SASSSIM)
		if err != nil {
			b.Fatal(err)
		}
		avg = eval.AverageBreakdown(res.Kernels)
	}
	printOnce("fig8", func() {
		fmt.Println("\nFig8: group | share of total power (Volta SASS SIM)")
		for g := eval.Group(0); g < eval.NumGroups; g++ {
			if s := avg.Share(g); s > 0.001 {
				fmt.Printf("Fig8: %-14v %.1f%%\n", g, 100*s)
			}
		}
	})
	big3 := avg.Share(eval.GroupRegFile) + avg.Share(eval.GroupStatic) + avg.Share(eval.GroupConst)
	b.ReportMetric(100*big3, "rf+static+const%")
}

// BenchmarkFig9PerKernel regenerates Figure 9: per-kernel measured power
// and AccelWattch breakdown for the Volta validation suite.
func BenchmarkFig9PerKernel(b *testing.B) {
	sess := benchSession(b)
	var res *eval.ValidationResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = sess.Validate(SASSSIM)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("fig9", func() {
		fmt.Println("\nFig9: kernel | measured (W) | estimated (W) | err | top groups")
		for _, k := range res.Kernels {
			g := eval.GroupBreakdown(k.Breakdown)
			fmt.Printf("Fig9: %-11s %6.1f %6.1f %+6.1f%% |", k.Name, k.MeasuredW, k.EstimatedW, k.RelErrPct())
			for grp := eval.Group(0); grp < eval.NumGroups; grp++ {
				if s := g.Share(grp); s > 0.12 {
					fmt.Printf(" %v:%.0f%%", grp, 100*s)
				}
			}
			fmt.Println()
		}
	})
	b.ReportMetric(float64(len(res.Kernels)), "kernels")
}

// BenchmarkFig10CaseStudies regenerates Figure 10: the Volta-tuned model
// applied to Pascal and Turing.
func BenchmarkFig10CaseStudies(b *testing.B) {
	sess := benchSession(b)
	var pascal, turing *eval.CaseStudyResult
	var err error
	for i := 0; i < b.N; i++ {
		pascal, err = sess.CaseStudy(Pascal())
		if err != nil {
			b.Fatal(err)
		}
		turing, err = sess.CaseStudy(Turing())
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("fig10", func() {
		fmt.Println("\nFig10: case study | SASS MAPE | PTX MAPE (paper: Pascal 11/10.8, Turing 13/14)")
		fmt.Printf("Fig10: pascal-titanx  %.2f%% %.2f%%\n", pascal.SASS.MAPE, pascal.PTX.MAPE)
		fmt.Printf("Fig10: turing-rtx2060s %.2f%% %.2f%%\n", turing.SASS.MAPE, turing.PTX.MAPE)
	})
	b.ReportMetric(pascal.SASS.MAPE, "pascalMAPE%")
	b.ReportMetric(turing.SASS.MAPE, "turingMAPE%")
}

// BenchmarkFig11CaseStudyPerKernel regenerates Figure 11: per-kernel rows
// for the Pascal and Turing case studies.
func BenchmarkFig11CaseStudyPerKernel(b *testing.B) {
	sess := benchSession(b)
	var pascal, turing *eval.CaseStudyResult
	var err error
	for i := 0; i < b.N; i++ {
		pascal, err = sess.CaseStudy(Pascal())
		if err != nil {
			b.Fatal(err)
		}
		turing, err = sess.CaseStudy(Turing())
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("fig11", func() {
		for _, cs := range []*eval.CaseStudyResult{pascal, turing} {
			fmt.Printf("\nFig11 (%s): kernel | measured | estimated | err\n", cs.Arch.Name)
			for _, k := range cs.SASS.Kernels {
				fmt.Printf("Fig11: %-11s %6.1f %6.1f %+6.1f%%\n", k.Name, k.MeasuredW, k.EstimatedW, k.RelErrPct())
			}
		}
	})
	b.ReportMetric(float64(len(pascal.SASS.Kernels)), "pascalKernels")
}

// BenchmarkFig12RelativePower regenerates Figure 12: modeled versus
// measured relative power across the three architecture pairs.
func BenchmarkFig12RelativePower(b *testing.B) {
	sess := benchSession(b)
	var rows []*eval.RelativePowerResult
	for i := 0; i < b.N; i++ {
		voltaSASS, err := sess.Validate(SASSSIM)
		if err != nil {
			b.Fatal(err)
		}
		pascal, err := sess.CaseStudy(Pascal())
		if err != nil {
			b.Fatal(err)
		}
		turing, err := sess.CaseStudy(Turing())
		if err != nil {
			b.Fatal(err)
		}
		rows = []*eval.RelativePowerResult{
			eval.RelativePower("pascal/volta", voltaSASS, pascal.SASS),
			eval.RelativePower("turing/volta", voltaSASS, turing.SASS),
			eval.RelativePower("turing/pascal", pascal.SASS, turing.SASS),
		}
	}
	printOnce("fig12", func() {
		fmt.Println("\nFig12: pair | avg modeled | avg measured | err | same-direction (paper errs: 1%, 3%, 1%)")
		for _, rp := range rows {
			fmt.Printf("Fig12: %-14s %+6.1f%% %+6.1f%% %.1f%% %.0f%%\n",
				rp.PairName, rp.AvgModeledPct, rp.AvgMeasuredPct, rp.AvgErrPct, 100*rp.SameDirectionFrac)
		}
	})
	b.ReportMetric(rows[0].AvgErrPct, "pascalRelErr%")
}

// BenchmarkFig13DeepBench regenerates Figure 13: the DeepBench case study
// with hand-constructed concurrent schedules.
func BenchmarkFig13DeepBench(b *testing.B) {
	sess := benchSession(b)
	var results []eval.DeepBenchResult
	var mape float64
	var err error
	for i := 0; i < b.N; i++ {
		results, mape, err = sess.DeepBench()
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("fig13", func() {
		fmt.Println("\nFig13: benchmark | measured (W) | estimated (W) (paper MAPE: 12.79%)")
		for _, r := range results {
			fmt.Printf("Fig13: %-22s %6.1f %6.1f\n", r.Name, r.MeasuredW, r.EstimatedW)
		}
		fmt.Printf("Fig13: MAPE %.2f%%\n", mape)
	})
	b.ReportMetric(mape, "MAPE%")
}

// BenchmarkTable1Components checks and prints the 22 dynamic power
// components of Table 1 with the SASS SIM model's tuned energies.
func BenchmarkTable1Components(b *testing.B) {
	sess := benchSession(b)
	m := sess.Model(SASSSIM)
	var total float64
	for i := 0; i < b.N; i++ {
		total = 0
		for _, c := range core.DynComponents() {
			total += m.EffectiveEnergyPJ(c)
		}
	}
	printOnce("table1", func() {
		fmt.Println("\nTable1: component | tuned energy (pJ/access)")
		for _, c := range core.DynComponents() {
			fmt.Printf("Table1: %-12v %8.2f\n", c, m.EffectiveEnergyPJ(c))
		}
	})
	b.ReportMetric(float64(core.NumDynComponents), "components")
	b.ReportMetric(total, "sumPJ")
}

// BenchmarkTable2Microbenchmarks regenerates Table 2: the per-category
// microbenchmark counts.
func BenchmarkTable2Microbenchmarks(b *testing.B) {
	var benches []ubench.Bench
	var err error
	for i := 0; i < b.N; i++ {
		benches, err = ubench.Suite(config.Volta(), benchScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("table2", func() {
		counts := map[ubench.Category]int{}
		for _, bench := range benches {
			counts[bench.Category]++
		}
		fmt.Println("\nTable2: category | count")
		for cat, n := range counts {
			fmt.Printf("Table2: %-20s %d\n", cat, n)
		}
		fmt.Printf("Table2: total %d (paper: 102)\n", len(benches))
	})
	b.ReportMetric(float64(len(benches)), "ubenches")
}

// BenchmarkTable3TargetGPUs prints the Table 3 target architectures.
func BenchmarkTable3TargetGPUs(b *testing.B) {
	var archs []*config.Arch
	for i := 0; i < b.N; i++ {
		archs = []*config.Arch{config.Volta(), config.Pascal(), config.Turing()}
		for _, a := range archs {
			if err := a.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	}
	printOnce("table3", func() {
		fmt.Println("\nTable3: GPU | node | clock | power limit")
		for _, a := range archs {
			fmt.Printf("Table3: %-16s %d nm %5.0f MHz %4.0f W\n",
				a.Name, a.TechNodeNM, a.BaseClockMHz, a.PowerLimitW)
		}
	})
	b.ReportMetric(float64(len(archs)), "gpus")
}

// BenchmarkTable4ValidationSuite regenerates Table 4: the validation
// kernels with their run-time coverage.
func BenchmarkTable4ValidationSuite(b *testing.B) {
	var suite []workloads.Kernel
	var err error
	for i := 0; i < b.N; i++ {
		suite, err = workloads.ValidationSuite(config.Volta(), benchScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("table4", func() {
		fmt.Println("\nTable4: kernel | benchmark | suite | coverage")
		for _, k := range suite {
			fmt.Printf("Table4: %-11s %-22s %-18s %.1f%%\n", k.Name, k.Benchmark, k.Suite, 100*k.Coverage)
		}
	})
	b.ReportMetric(float64(len(suite)), "kernels")
}

// BenchmarkSec54StartingPoints regenerates the Section 5.4 comparison: the
// Fermi starting point versus the all-ones starting point.
func BenchmarkSec54StartingPoints(b *testing.B) {
	sess := benchSession(b)
	res := sess.Tuned()
	var gap float64
	for i := 0; i < b.N; i++ {
		gap = res.OtherFits[SASSSIM].TrainMAPE - res.BestFits[SASSSIM].TrainMAPE
	}
	printOnce("sec54", func() {
		fmt.Println("\nSec5.4: variant | adopted start (MAPE) | other start (MAPE) (paper: fermi 9.2% vs ones 14.8%)")
		for _, v := range tune.Variants() {
			fmt.Printf("Sec5.4: %-9v %-5v (%.2f%%) vs %-5v (%.2f%%)\n",
				v, res.BestFits[v].Start, res.BestFits[v].TrainMAPE,
				res.OtherFits[v].Start, res.OtherFits[v].TrainMAPE)
		}
	})
	b.ReportMetric(gap, "gapMAPE%")
}

// BenchmarkSec73GPUWattch regenerates the Section 7.3 baseline: GPUWattch's
// Fermi configuration applied to Volta.
func BenchmarkSec73GPUWattch(b *testing.B) {
	sess := benchSession(b)
	var gw *eval.GPUWattchComparison
	var err error
	for i := 0; i < b.N; i++ {
		gw, err = sess.CompareGPUWattch()
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("sec73", func() {
		fmt.Printf("\nSec7.3: GPUWattch on Volta: SASS MAPE %.0f%%, PTX MAPE %.0f%% (paper: 219%%, 225%%)\n",
			gw.SASSMAPE, gw.PTXMAPE)
		fmt.Printf("Sec7.3: avg estimate %.0f W, max %.0f W (paper: 530 W, 926 W); const+static %.2f W\n",
			gw.AvgEstimatedW, gw.MaxEstimatedW, gw.ConstPlusStaticW)
		fmt.Printf("Sec7.3: INT MUL share %.1f%%, DRAM share %.1f%% (paper: 14%%, 27%%)\n",
			100*gw.IntMulShare, 100*gw.DRAMShare)
	})
	b.ReportMetric(gw.SASSMAPE, "gpuwattchMAPE%")
}
