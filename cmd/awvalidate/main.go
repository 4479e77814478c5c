// Command awvalidate reproduces the paper's evaluation: the Volta
// validation of Figures 7-9, the Pascal and Turing case studies of Figures
// 10-12, the DeepBench case study of Figure 13, and the GPUWattch baseline
// comparison of Section 7.3.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"sort"
	"text/tabwriter"

	"accelwattch"
	"accelwattch/internal/cli"
	"accelwattch/internal/eval"
	"accelwattch/internal/tune"
	"accelwattch/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("awvalidate: ")
	var (
		full       = flag.Bool("full", false, "use the full-fidelity workload scale")
		doCases    = flag.Bool("casestudies", true, "run the Pascal/Turing case studies")
		doDeep     = flag.Bool("deepbench", true, "run the DeepBench case study")
		doLegacy   = flag.Bool("gpuwattch", true, "run the GPUWattch baseline comparison")
		perKernel  = flag.Bool("kernels", false, "print per-kernel rows (Figure 9)")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "execution-engine worker count (results are identical at any setting)")
		strict     = flag.Bool("strict", false, "exit non-zero on partial failure (quarantined workloads or kernels without a defined error)")
		metricsOut = flag.String("metrics-out", "", "write the JSON telemetry snapshot (metrics + stage spans) to this file")
		byCategory = flag.Bool("by-category", false, "validate the AI-inference pack and report MAPE per category (gemm, attention, tensorcore, memory, parked)")
		catBounds  = flag.String("category-bounds", "", "gate per-category MAPE against a bound file (one \"category percent\" per line); implies -by-category")
	)
	traceOut, ledgerOut := cli.Artifacts()
	flag.Parse()

	sc := accelwattch.Quick
	if *full {
		sc = accelwattch.Full
	}
	run := cli.Start("awvalidate", "volta", *traceOut, *ledgerOut)
	run.MetricsOut = *metricsOut
	fmt.Println("tuning AccelWattch on the Volta testbench...")
	opts := accelwattch.SessionOptions{Workers: *workers}
	sess, err := accelwattch.NewSessionWithOptions(accelwattch.Volta(), sc, opts)
	if err != nil {
		run.Fatal(err)
	}

	// Figure 7: validation across variants.
	fmt.Println("\n== Figure 7: Volta validation ==")
	all, err := sess.ValidateAll()
	if err != nil {
		run.Fatal(err)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "variant\tMAPE\t95% CI\tmax err\tpearson r\tkernels")
	for _, v := range tune.Variants() {
		r := all[v]
		fmt.Fprintf(w, "%v\t%.2f%%\t±%.2f\t%.1f%%\t%.3f\t%d\n",
			v, r.MAPE, r.CI95, r.MaxAPE, r.Pearson, len(r.Kernels))
	}
	w.Flush()
	fmt.Println("(paper: SASS 9.2%, PTX 13.7%, HW 7.5%, HYBRID 8.2%)")

	// Figure 8: normalised breakdown.
	fmt.Println("\n== Figure 8: normalised power breakdown (SASS SIM) ==")
	avg := eval.AverageBreakdown(all[accelwattch.SASSSIM].Kernels)
	for g := eval.Group(0); g < eval.NumGroups; g++ {
		if s := avg.Share(g); s > 0.001 {
			fmt.Printf("  %-14v %5.1f%%\n", g, 100*s)
		}
	}

	if *perKernel {
		fmt.Println("\n== Figure 9: per-kernel power (SASS SIM) ==")
		w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "kernel\tmeasured (W)\testimated (W)\terror")
		for _, k := range all[accelwattch.SASSSIM].Kernels {
			fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%+.1f%%\n", k.Name, k.MeasuredW, k.EstimatedW, k.RelErrPct())
		}
		w.Flush()
	}

	if *byCategory || *catBounds != "" {
		fmt.Println("\n== AI-inference pack: per-category validation ==")
		byCat, err := sess.ValidateAllByCategory()
		if err != nil {
			run.Fatal(err)
		}
		w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprint(w, "category\tkernels")
		for _, v := range tune.Variants() {
			fmt.Fprintf(w, "\t%v", v)
		}
		fmt.Fprintln(w)
		for _, cat := range workloads.Categories() {
			row := byCat[accelwattch.SASSSIM].Category(cat)
			if row == nil {
				continue
			}
			fmt.Fprintf(w, "%s\t%d", cat, row.Kernels)
			for _, v := range tune.Variants() {
				if cr := byCat[v].Category(cat); cr != nil {
					fmt.Fprintf(w, "\t%.2f%%", cr.MAPE)
				} else {
					fmt.Fprint(w, "\t-")
				}
			}
			fmt.Fprintln(w)
		}
		w.Flush()
		for _, v := range tune.Variants() {
			if err := eval.CheckParkedInvariant(byCat[v].Kernels); err != nil {
				run.Fatalf("parked-power invariant (%v): %v", v, err)
			}
		}
		fmt.Println("parked-power invariant: estimate bit-equal to the idle domain under every variant")

		if *catBounds != "" {
			bounds, err := cli.LoadCategoryBounds(*catBounds)
			if err != nil {
				run.Fatal(err)
			}
			var broken []string
			for _, v := range tune.Variants() {
				seen := map[string]bool{}
				for _, cr := range byCat[v].Categories {
					seen[string(cr.Category)] = true
					bound, gated := bounds[string(cr.Category)]
					if !gated {
						continue
					}
					if cr.Kernels == 0 {
						broken = append(broken, fmt.Sprintf("%v/%s: zero kernels validated", v, cr.Category))
					}
					if cr.MAPE > bound {
						broken = append(broken, fmt.Sprintf("%v/%s: MAPE %.2f%% exceeds the %.2f%% bound", v, cr.Category, cr.MAPE, bound))
					}
				}
				// A bounded category that vanished from the suite is a
				// silent pass the gate exists to prevent.
				for cat := range bounds {
					if !seen[cat] {
						broken = append(broken, fmt.Sprintf("%v/%s: category absent from the validation run", v, cat))
					}
				}
			}
			sort.Strings(broken)
			if len(broken) > 0 {
				fmt.Println("\n== category gate: bounds exceeded ==")
				for _, b := range broken {
					fmt.Println("  " + b)
				}
				run.Fatalf("category gate failed (%d bound(s) exceeded, bounds from %s)", len(broken), *catBounds)
			}
			fmt.Printf("category gate: every category within the bounds of %s\n", *catBounds)
		}
	}

	if *doCases {
		fmt.Println("\n== Figures 10-12: Pascal & Turing case studies ==")
		voltaSASS := all[accelwattch.SASSSIM]
		pascal, err := sess.CaseStudy(accelwattch.Pascal())
		if err != nil {
			run.Fatal(err)
		}
		turing, err := sess.CaseStudy(accelwattch.Turing())
		if err != nil {
			run.Fatal(err)
		}
		fmt.Printf("Pascal TITAN X : SASS MAPE %.2f%%, PTX MAPE %.2f%% (paper: 11%%, 10.8%%)\n",
			pascal.SASS.MAPE, pascal.PTX.MAPE)
		fmt.Printf("Turing RTX2060S: SASS MAPE %.2f%%, PTX MAPE %.2f%% (paper: 13%%, 14%%)\n",
			turing.SASS.MAPE, turing.PTX.MAPE)
		for _, pair := range []struct {
			name string
			a, b *eval.ValidationResult
		}{
			{"Pascal vs Volta", voltaSASS, pascal.SASS},
			{"Turing vs Volta", voltaSASS, turing.SASS},
			{"Turing vs Pascal", pascal.SASS, turing.SASS},
		} {
			rp := eval.RelativePower(pair.name, pair.a, pair.b)
			fmt.Printf("%-17s avg relative power: modeled %+.1f%%, measured %+.1f%% (err %.1f%%; same direction %.0f%%)\n",
				rp.PairName, rp.AvgModeledPct, rp.AvgMeasuredPct, rp.AvgErrPct, 100*rp.SameDirectionFrac)
		}
	}

	if *doDeep {
		fmt.Println("\n== Figure 13: DeepBench case study ==")
		results, mape, err := sess.DeepBench()
		if err != nil {
			run.Fatal(err)
		}
		for _, r := range results {
			fmt.Printf("  %-22s measured %.1f W, estimated %.1f W\n", r.Name, r.MeasuredW, r.EstimatedW)
		}
		fmt.Printf("DeepBench MAPE: %.2f%% (paper: 12.79%%)\n", mape)
	}

	if *doLegacy {
		fmt.Println("\n== Section 7.3: GPUWattch baseline on Volta ==")
		gw, err := sess.CompareGPUWattch()
		if err != nil {
			run.Fatal(err)
		}
		fmt.Printf("GPUWattch MAPE: SASS %.0f%%, PTX %.0f%% (paper: 219%%, 225%%)\n", gw.SASSMAPE, gw.PTXMAPE)
		fmt.Printf("average estimate %.0f W, max %.0f W (paper: 530 W, 926 W)\n", gw.AvgEstimatedW, gw.MaxEstimatedW)
		fmt.Printf("const+static lumped at %.2f W; INT MUL share %.1f%%; DRAM share %.1f%%\n",
			gw.ConstPlusStaticW, 100*gw.IntMulShare, 100*gw.DRAMShare)
	}

	if err := run.Close(); err != nil {
		log.Fatal(err)
	}

	if *strict {
		var problems []string
		for _, q := range sess.Quarantined() {
			problems = append(problems, "quarantined: "+q)
		}
		for _, v := range tune.Variants() {
			for _, k := range all[v].Kernels {
				if math.IsNaN(k.RelErrPct()) {
					problems = append(problems, fmt.Sprintf("%v/%s: no defined error (measured %.1f W)", v, k.Name, k.MeasuredW))
				}
			}
		}
		if len(problems) > 0 {
			fmt.Println("\n== strict mode: partial failures ==")
			for _, p := range problems {
				fmt.Println("  " + p)
			}
			os.Exit(1)
		}
	}
}
