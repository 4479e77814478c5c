// Command awtune runs the complete AccelWattch model-construction flow of
// Figure 1 — DVFS constant-power estimation, divergence-aware static
// modelling, idle-SM modelling, and quadratic-programming dynamic tuning
// for all four variants — and prints the resulting model.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"text/tabwriter"

	"accelwattch"
	"accelwattch/internal/cli"
	"accelwattch/internal/config"
	"accelwattch/internal/core"
	"accelwattch/internal/tune"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("awtune: ")
	var (
		archName  = flag.String("arch", "volta", "architecture to tune for (volta, pascal, turing, or a full or chip name such as titanx)")
		full      = flag.Bool("full", false, "use the full-fidelity workload scale")
		outPath   = flag.String("o", "", "save the tuned SASS SIM model as a JSON config file")
		faultName = flag.String("faults", "off", "inject power-meter faults while tuning ("+
			strings.Join(accelwattch.NamedFaultProfiles(), ", ")+")")
		faultSeed  = flag.Int64("fault-seed", 1, "deterministic seed for the fault injector")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "execution-engine worker count (results are identical at any setting)")
		metricsOut = flag.String("metrics-out", "", "write the JSON telemetry snapshot (metrics + stage spans) to this file")
	)
	traceOut, ledgerOut := cli.Artifacts()
	flag.Parse()

	arch, err := config.ByName(*archName)
	if err != nil {
		log.Fatal(err)
	}
	sc := accelwattch.Quick
	if *full {
		sc = accelwattch.Full
	}

	prof, err := accelwattch.NamedFaultProfile(*faultName, *faultSeed)
	if err != nil {
		log.Fatal(err)
	}
	run := cli.Start("awtune", arch.Name+" faults="+*faultName, *traceOut, *ledgerOut)
	run.MetricsOut = *metricsOut

	fmt.Printf("tuning AccelWattch for %s (%d SMs, %d nm, base %.0f MHz)...\n",
		arch.Name, arch.NumSMs, arch.TechNodeNM, arch.BaseClockMHz)
	if prof.Enabled() {
		fmt.Printf("injecting %q power-meter faults (seed %d); hardened measurement policy\n",
			*faultName, *faultSeed)
	}
	opts := accelwattch.SessionOptions{Faults: &prof, Workers: *workers}
	sess, err := accelwattch.NewSessionWithOptions(arch, sc, opts)
	if err != nil {
		run.Fatal(err)
	}
	res := sess.Tuned()

	fmt.Printf("\n== constant power (Section 4.2) ==\n")
	fmt.Printf("P_const = %.2f W  (Eq. 3 y-intercepts; legacy linear method: %.2f W)\n",
		res.ConstPower.ConstW, res.ConstPower.LegacyConstW)

	fmt.Printf("\n== divergence-aware static models (Sections 4.4-4.5) ==\n")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "mix\tfirst-lane (W)\t32-lane (W)\tmodel")
	for _, f := range res.DivFits {
		model := "linear"
		if f.HalfWarp {
			model = "half-warp"
		}
		fmt.Fprintf(w, "%v\t%.2f\t%.2f\t%s\n", f.Mix, f.StaticFirstLaneW, f.Static32LanesW, model)
	}
	w.Flush()

	fmt.Printf("\n== idle SM (Section 4.6) ==\nP_perIdleSM = %.3f W (geomean of %d estimates)\n",
		res.IdleSM.PerIdleSMW, len(res.IdleSM.Estimates))

	fmt.Printf("\n== temperature factor (Section 4.1) ==\nstatic power x exp(%.4f * (T - 65C))\n",
		res.Temperature.Coeff)

	fmt.Printf("\n== dynamic tuning (Section 5.4) ==\n")
	for _, v := range tune.Variants() {
		fmt.Printf("%-9v adopted %-5v start: train MAPE %.2f%% (other start %v: %.2f%%)\n",
			v, res.BestFits[v].Start, res.BestFits[v].TrainMAPE,
			res.OtherFits[v].Start, res.OtherFits[v].TrainMAPE)
	}

	fmt.Printf("\n== tuned per-access energies, SASS SIM (pJ) ==\n")
	m := sess.Model(accelwattch.SASSSIM)
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "component\tinitial\tscale\teffective")
	for _, c := range core.DynComponents() {
		fmt.Fprintf(w, "%v\t%.1f\t%.4f\t%.2f\n", c, m.BaseEnergyPJ[c], m.Scale[c], m.EffectiveEnergyPJ(c))
	}
	w.Flush()

	if st, ok := sess.FaultStats(); ok {
		fmt.Printf("\n== meter fault report ==\n")
		fmt.Printf("%d reads: %d transient errors, %d stuck, %d spikes, %d dropped samples\n",
			st.Reads, st.TransientErrors, st.StuckReads, st.Spikes, st.DroppedSamples)
	}
	if q := sess.Quarantined(); len(q) > 0 {
		fmt.Printf("\n== quarantined workloads ==\n")
		for _, name := range q {
			fmt.Printf("  %s\n", name)
		}
	}

	if *outPath != "" {
		// Record which variant this model was tuned under: serving layers
		// use the tag to refuse (or loudly warn about) answering for a
		// variant the model was never validated against.
		m.TunedVariant = accelwattch.SASSSIM.String()
		if err := m.Save(*outPath); err != nil {
			run.Fatal(err)
		}
		fmt.Printf("\nsaved the tuned SASS SIM model to %s (tuned variant %s)\n", *outPath, m.TunedVariant)
	}
	if err := run.Close(); err != nil {
		log.Fatal(err)
	}
}
