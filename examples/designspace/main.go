// Design-space exploration (Section 7.1): apply the Volta-tuned model —
// without retuning — to other architectures and ask which gives the best
// performance per watt on a GEMM-like kernel. This is exactly the use case
// the paper validates with the Pascal and Turing case studies: technology
// scaling bridges process nodes, and the constant/static/dynamic split
// makes the comparison honest.
//
//	go run ./examples/designspace
package main

import (
	"fmt"
	"log"

	"accelwattch"
	"accelwattch/internal/core"
	"accelwattch/internal/eval"
	"accelwattch/internal/isa"
	"accelwattch/internal/tune"
	"accelwattch/internal/workloads"
)

func main() {
	log.SetFlags(0)
	fmt.Println("tuning AccelWattch on Volta (the only architecture we 'measure')...")
	sess, err := accelwattch.SharedSession(accelwattch.Volta(), accelwattch.Quick)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\napplying the Volta model to Pascal and Turing without retuning:")
	fmt.Printf("%-18s %-10s %-10s %-12s\n", "architecture", "SASS MAPE", "PTX MAPE", "avg rel. err")
	voltaSASS, err := sess.Validate(accelwattch.SASSSIM)
	if err != nil {
		log.Fatal(err)
	}
	for _, target := range []*accelwattch.Arch{accelwattch.Pascal(), accelwattch.Turing()} {
		cs, err := sess.CaseStudy(target)
		if err != nil {
			log.Fatal(err)
		}
		rp := eval.RelativePower(target.Name, voltaSASS, cs.SASS)
		fmt.Printf("%-18s %7.2f%%  %7.2f%%  %9.1f%%\n",
			target.Name, cs.SASS.MAPE, cs.PTX.MAPE, rp.AvgErrPct)
	}

	// Now the architect's question: on which chip does sgemm deliver the
	// best performance per watt? Simulate the same kernel on each
	// architecture and price it with the (re-targeted) Volta model.
	fmt.Println("\nsgemm performance/watt across the design space:")
	fmt.Printf("%-18s %-12s %-10s %-14s\n", "architecture", "cycles", "power (W)", "perf/W (rel.)")
	var base float64
	for _, target := range []*accelwattch.Arch{accelwattch.Volta(), accelwattch.Pascal(), accelwattch.Turing()} {
		tb, err := tune.NewTestbench(target, accelwattch.Quick)
		if err != nil {
			log.Fatal(err)
		}
		suite := workloads.MustValidationSuite(target, accelwattch.Quick)
		var kern *workloads.Kernel
		for i := range suite {
			if suite[i].Name == "sgemm_K1" {
				kern = &suite[i]
			}
		}
		r, err := tb.Simulate(tune.Workload{Name: kern.Name, Kernel: kern.Kernel, Setup: kern.Setup}, isa.SASS)
		if err != nil {
			log.Fatal(err)
		}
		// On Volta itself the transform is the identity.
		model, _, err := sess.Model(accelwattch.SASSSIM).Derive(target, core.DefaultConstMult(target))
		if err != nil {
			log.Fatal(err)
		}
		p, err := model.EstimatePower(r.Aggregate)
		if err != nil {
			log.Fatal(err)
		}
		timeS := r.Cycles / (target.BaseClockMHz * 1e6)
		perfPerWatt := 1 / (timeS * p)
		if base == 0 {
			base = perfPerWatt
		}
		fmt.Printf("%-18s %10.0f  %8.1f  %10.2fx\n", target.Name, r.Cycles, p, perfPerWatt/base)
	}
}
