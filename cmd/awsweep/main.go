// Command awsweep runs the hardware-characterisation sweeps of Sections
// 4.2-4.6 on the synthetic silicon and prints the series behind Figures 2,
// 3, 4 and 5: total power versus frequency with Eq. (3) fits, the
// power-gating lane/SM ladder, the divergence sawtooth, and the idle-SM
// sweep.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"text/tabwriter"

	"accelwattch/internal/cli"
	"accelwattch/internal/config"
	"accelwattch/internal/core"
	"accelwattch/internal/obs"
	"accelwattch/internal/tune"
	"accelwattch/internal/ubench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("awsweep: ")
	var (
		archName   = flag.String("arch", "volta", "target architecture (volta, pascal, turing)")
		exp        = flag.String("exp", "all", "experiment: dvfs, gating, divergence, idlesm, or all")
		full       = flag.Bool("full", false, "use the full-fidelity workload scale")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "execution-engine worker count (results are identical at any setting)")
		strict     = flag.Bool("strict", false, "exit non-zero on partial failure (any quarantined workload)")
		metricsOut = flag.String("metrics-out", "", "write the JSON telemetry snapshot (metrics + stage spans) to this file")
	)
	traceOut, ledgerOut := cli.Artifacts()
	flag.Parse()

	arch, err := config.ByName(*archName)
	if err != nil {
		log.Fatal(err)
	}
	sc := ubench.Quick
	if *full {
		sc = ubench.Full
	}
	obsRun := cli.Start("awsweep", arch.Name+" exp="+*exp, *traceOut, *ledgerOut)
	tb, err := tune.NewTestbench(arch, sc)
	if err != nil {
		obsRun.Fatal(err)
	}
	ex, err := tune.NewExec(nil, tb, *workers)
	if err != nil {
		obsRun.Fatal(err)
	}

	run := func(name string, f func(*tune.Exec) error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := f(ex); err != nil {
			obsRun.Fatalf("%s: %v", name, err)
		}
	}
	run("dvfs", sweepDVFS)
	run("gating", sweepGating)
	run("divergence", sweepDivergence)
	run("idlesm", sweepIdleSM)

	if *metricsOut != "" {
		if err := obs.Default().WriteJSONFile(*metricsOut); err != nil {
			obsRun.Fatal(err)
		}
		fmt.Printf("wrote the telemetry snapshot to %s\n", *metricsOut)
	}
	if err := obsRun.Close(); err != nil {
		log.Fatal(err)
	}
	if q := tb.Quarantined(); *strict && len(q) > 0 {
		fmt.Println("== strict mode: quarantined workloads ==")
		for _, name := range q {
			fmt.Println("  " + name)
		}
		os.Exit(1)
	}
}

func sweepDVFS(ex *tune.Exec) error {
	tb := ex.TB()
	fmt.Println("== Figure 2: total power vs core clock, with Eq.(3) fits ==")
	res, err := ex.EstimateConstPower(tune.DefaultSweep(tb.Arch.MinClockMHz+65, tb.Arch.MaxClockMHz))
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "workload\tf(GHz)->P(W)\tbeta\ttau\tintercept\tfit MAPE")
	for _, c := range res.Curves {
		fmt.Fprintf(w, "%s\t", c.Name)
		for i := range c.FreqGHz {
			fmt.Fprintf(w, "%.1f:%.0f ", c.FreqGHz[i], c.PowerW[i])
		}
		fmt.Fprintf(w, "\t%.1f\t%.1f\t%.1f\t%.2f%%\n", c.Fit.Beta, c.Fit.Tau, c.Fit.Const, c.FitMAPE)
	}
	w.Flush()
	fmt.Printf("constant power estimate: %.2f W (paper: 32.5 W on GV100)\n", res.ConstW)
	fmt.Printf("legacy linear-extrapolation estimate: %.2f W (methodology the paper retires)\n\n", res.LegacyConstW)
	return nil
}

func sweepGating(ex *tune.Exec) error {
	tb := ex.TB()
	fmt.Println("== Figure 3: power-gating lane/SM activation ladder ==")
	n := tb.Arch.NumSMs
	configs := []struct {
		name       string
		sms, lanes int
	}{
		{"1 Lane x 1 SM", 1, 1},
		{fmt.Sprintf("1 Lane x %d SMs", n), n, 1},
		{fmt.Sprintf("8 Lanes x %d SMs", n), n, 8},
		{fmt.Sprintf("16 Lanes x %d SMs", n), n, 16},
		{fmt.Sprintf("24 Lanes x %d SMs", n), n, 24},
		{fmt.Sprintf("32 Lanes x %d SMs", n), n, 32},
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "configuration\tpower (W)")
	fmt.Fprintf(w, "Inactive Chip\t%.1f\n", tb.Device.MeasureIdle().AvgPowerW)
	var first float64
	for i, c := range configs {
		b := ubench.GatingBench(tb.Arch, tb.Scale, c.sms, c.lanes)
		m, err := tb.Measure(tune.FromBench(b), 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%.1f\n", c.name, m.AvgPowerW)
		if i == 0 {
			first = m.AvgPowerW
		}
		if i == 1 {
			fmt.Fprintf(w, "  (ratio to 1Lx1SM: %.2f; paper: ~1.7)\t\n", m.AvgPowerW/first)
		}
	}
	w.Flush()
	fmt.Println()
	return nil
}

func sweepDivergence(ex *tune.Exec) error {
	tb := ex.TB()
	fmt.Println("== Figure 4: power vs active threads per warp ==")
	mixes := []core.MixCategory{core.MixIntMul, core.MixIntFP, core.MixIntFPSFU}
	var pts []tune.Point
	for _, mix := range mixes {
		for y := 4; y <= 32; y += 4 {
			pts = append(pts, tune.Point{W: tune.FromBench(ubench.DivergenceBench(tb.Arch, tb.Scale, mix, y))})
		}
	}
	rs, err := ex.MeasureAll(pts)
	if err != nil {
		return err
	}
	for _, mix := range mixes {
		fmt.Printf("%s:", mix)
		for y := 4; y <= 32; y += 4 {
			r := rs[0]
			rs = rs[1:]
			if r.Err != nil {
				return r.Err
			}
			fmt.Printf("  y=%d:%.1fW", y, r.M.AvgPowerW)
		}
		fmt.Println()
	}
	fmt.Println("(INT_MUL dips after y=16: the half-warp sawtooth; mixes flatten to linear)")
	fmt.Println()
	return nil
}

func sweepIdleSM(ex *tune.Exec) error {
	tb := ex.TB()
	fmt.Println("== Figure 5: power vs idle SM count (INT_MUL) ==")
	n := tb.Arch.NumSMs
	ladder := []int{n, 3 * n / 4, n / 2, n / 4, n / 8, 1}
	pts := make([]tune.Point, len(ladder))
	for i, active := range ladder {
		pts[i].W = tune.FromBench(ubench.OccupancyBench(tb.Arch, tb.Scale, active))
	}
	rs, err := ex.MeasureAll(pts)
	if err != nil {
		return err
	}
	for i, active := range ladder {
		if rs[i].Err != nil {
			return rs[i].Err
		}
		fmt.Printf("  idle=%2d active=%2d: %.1f W\n", n-active, active, rs[i].M.AvgPowerW)
	}
	fmt.Println()
	return nil
}
