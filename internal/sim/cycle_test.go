package sim

import (
	"testing"

	"accelwattch/internal/config"
	"accelwattch/internal/core"
	"accelwattch/internal/isa"
	"accelwattch/internal/ubench"
)

// tinyScale keeps the per-cycle loop affordable in tests.
var cycleScale = ubench.Scale{Iters: 4, Unroll: 1, WarpsPerCTA: 4}

func TestCycleAccurateMatchesInterval(t *testing.T) {
	arch := config.Volta()
	s := mustNew(t, arch)
	for _, mix := range []core.MixCategory{core.MixIntMul, core.MixIntFP, core.MixIntFPSFU} {
		b := ubench.DivergenceBench(arch, cycleScale, mix, 32)
		kt := traceOf(t, b, isa.SASS)
		interval, err := s.Run(kt)
		if err != nil {
			t.Fatal(err)
		}
		cyc, err := s.runCycleAccurate(GTO, kt)
		if err != nil {
			t.Fatal(err)
		}
		// Same trace, same counting rules: activity identical.
		if cyc.WarpInstrs != interval.WarpInstrs {
			t.Errorf("%v: instruction counts differ (%d vs %d)", mix, cyc.WarpInstrs, interval.WarpInstrs)
		}
		for c := 0; c < core.NumDynComponents; c++ {
			if cyc.Aggregate.Counts[c] != interval.Aggregate.Counts[c] {
				t.Errorf("%v: activity for %v differs", mix, core.Component(c))
			}
		}
		// Timing: the interval analysis should agree with the explicit
		// cycle loop within a factor of two (it is a lower-bound-style
		// max over throughput/dependency bounds).
		ratio := cyc.Cycles / interval.Cycles
		if ratio < 0.8 || ratio > 2.5 {
			t.Errorf("%v: cycle-accurate %.0f vs interval %.0f cycles (ratio %.2f)",
				mix, cyc.Cycles, interval.Cycles, ratio)
		}
	}
}

func TestCycleAccurateHalfWarpThroughput(t *testing.T) {
	arch := config.Volta()
	s := mustNew(t, arch)
	b16 := ubench.DivergenceBench(arch, cycleScale, core.MixIntMul, 16)
	b32 := ubench.DivergenceBench(arch, cycleScale, core.MixIntMul, 32)
	r16, err := s.runCycleAccurate(GTO, traceOf(t, b16, isa.SASS))
	if err != nil {
		t.Fatal(err)
	}
	r32, err := s.runCycleAccurate(GTO, traceOf(t, b32, isa.SASS))
	if err != nil {
		t.Fatal(err)
	}
	if ratio := r32.Cycles / r16.Cycles; ratio < 1.3 {
		t.Errorf("half-warp execution should slow 32-lane warps (ratio %.2f)", ratio)
	}
}

func TestSchedulerPoliciesDiffer(t *testing.T) {
	arch := config.Volta()
	s := mustNew(t, arch)
	// A latency-bound memory kernel is where scheduling policy matters.
	benches := ubench.MustSuite(arch, cycleScale)
	var bench ubench.Bench
	for _, b := range benches {
		if b.Name == "l2_chase" {
			bench = b
		}
	}
	kt := traceOf(t, bench, isa.SASS)
	gto, err := s.runCycleAccurate(GTO, kt)
	if err != nil {
		t.Fatal(err)
	}
	lrr, err := s.runCycleAccurate(LRR, kt)
	if err != nil {
		t.Fatal(err)
	}
	if gto.WarpInstrs != lrr.WarpInstrs {
		t.Error("policies must execute the same work")
	}
	t.Logf("l2_chase: GTO %.0f cycles, LRR %.0f cycles", gto.Cycles, lrr.Cycles)
	// Policies may legitimately tie on this workload shape; both must at
	// least produce valid non-degenerate timings.
	if gto.Cycles <= 0 || lrr.Cycles <= 0 {
		t.Error("degenerate cycle counts")
	}
}

func TestCycleAccurateRejectsBadInput(t *testing.T) {
	s := mustNew(t, config.Volta())
	if _, err := s.runCycleAccurate(GTO); err == nil {
		t.Error("empty run accepted")
	}
	b := ubench.DivergenceBench(config.Volta(), cycleScale, core.MixIntAdd, 32)
	kp := traceOf(t, b, isa.PTX)
	ks := traceOf(t, b, isa.SASS)
	if _, err := s.runCycleAccurate(GTO, kp, ks); err == nil {
		t.Error("mixed levels accepted")
	}
}

func TestCycleAccurateDeterminism(t *testing.T) {
	arch := config.Volta()
	s := mustNew(t, arch)
	b := ubench.DivergenceBench(arch, cycleScale, core.MixIntFP, 32)
	kt := traceOf(t, b, isa.SASS)
	r1, err := s.runCycleAccurate(GTO, kt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.runCycleAccurate(GTO, kt)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.Aggregate.Counts != r2.Aggregate.Counts {
		t.Error("cycle-accurate replay must be deterministic")
	}
}
