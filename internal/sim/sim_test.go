package sim

import (
	"testing"

	"accelwattch/internal/config"
	"accelwattch/internal/core"
	"accelwattch/internal/emu"
	"accelwattch/internal/isa"
	"accelwattch/internal/silicon"
	"accelwattch/internal/trace"
	"accelwattch/internal/ubench"
)

func traceOf(t *testing.T, b ubench.Bench, level isa.Level) *trace.KernelTrace {
	t.Helper()
	k, err := isa.ForLevel(b.Kernel, level)
	if err != nil {
		t.Fatal(err)
	}
	kt, err := emu.Run(k, b.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	return kt
}

func TestRunBasics(t *testing.T) {
	arch := config.Volta()
	s := mustNew(t, arch)
	b := ubench.DivergenceBench(arch, ubench.Quick, core.MixIntFP, 32)
	r, err := s.Run(traceOf(t, b, isa.SASS))
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles <= 0 {
		t.Fatal("no cycles simulated")
	}
	if r.ActiveSMs != arch.NumSMs {
		t.Errorf("active SMs %d, want %d", r.ActiveSMs, arch.NumSMs)
	}
	if r.Aggregate.Counts[core.CompRF] == 0 || r.Aggregate.Counts[core.CompIBUF] == 0 {
		t.Error("front-end activity missing")
	}
	if r.Aggregate.Mix != core.MixIntFP {
		t.Errorf("mix classified as %v, want INT_FP", r.Aggregate.Mix)
	}
	if r.AvgLanes < 30 || r.AvgLanes > 32 {
		t.Errorf("avg lanes %v for a full-warp kernel", r.AvgLanes)
	}
}

func TestActivityMatchesTraceCounts(t *testing.T) {
	arch := config.Volta()
	s := mustNew(t, arch)
	b := ubench.DivergenceBench(arch, ubench.Quick, core.MixIntMul, 32)
	kt := traceOf(t, b, isa.SASS)
	r, err := s.Run(kt)
	if err != nil {
		t.Fatal(err)
	}
	stats := trace.Summarize(kt)
	if r.WarpInstrs != stats.DynInstrs {
		t.Errorf("sim issued %d instrs, trace has %d", r.WarpInstrs, stats.DynInstrs)
	}
	// IBUF/SCHED/PIPE are charged once per warp instruction.
	if r.Aggregate.Counts[core.CompIBUF] != float64(stats.DynInstrs) {
		t.Error("IBUF count mismatch")
	}
	// IMUL thread-ops must show up in the INTMUL component.
	var imulLanes float64
	for wi := range kt.Warps {
		for _, rec := range kt.Warps[wi].Recs {
			if core.OpComponent(kt.Instr(rec).Op) == core.CompINTMUL {
				imulLanes += float64(rec.ActiveLanes())
			}
		}
	}
	if r.Aggregate.Counts[core.CompINTMUL] != imulLanes {
		t.Errorf("INTMUL count %v, want %v", r.Aggregate.Counts[core.CompINTMUL], imulLanes)
	}
}

func TestWindowsPartitionAggregate(t *testing.T) {
	arch := config.Volta()
	s := mustNew(t, arch)
	b := ubench.DivergenceBench(arch, ubench.Quick, core.MixIntAdd, 32)
	r, err := s.Run(traceOf(t, b, isa.SASS))
	if err != nil {
		t.Fatal(err)
	}
	var cyc, alu float64
	for _, w := range r.Windows {
		if w.Cycles > SamplePeriod+1e-6 {
			t.Errorf("window of %v cycles exceeds the sampling period", w.Cycles)
		}
		cyc += w.Cycles
		alu += w.Counts[core.CompALU]
	}
	if diff := cyc - r.Cycles; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("windows cover %v cycles, aggregate %v", cyc, r.Cycles)
	}
	if diff := alu - r.Aggregate.Counts[core.CompALU]; diff > 1e-3 || diff < -1e-3 {
		t.Error("window activity does not partition the aggregate")
	}
}

func TestPTXModeDiffersFromSASS(t *testing.T) {
	arch := config.Volta()
	s := mustNew(t, arch)
	// sfu_sin uses the PTX sin.f32, which expands to RRO+MUFU at SASS
	// level, so the two instruction streams differ.
	var b ubench.Bench
	for _, cand := range ubench.MustSuite(arch, ubench.Quick) {
		if cand.Name == "sfu_sin" {
			b = cand
		}
	}
	rs, err := s.Run(traceOf(t, b, isa.SASS))
	if err != nil {
		t.Fatal(err)
	}
	rp, err := s.Run(traceOf(t, b, isa.PTX))
	if err != nil {
		t.Fatal(err)
	}
	if rp.WarpInstrs >= rs.WarpInstrs {
		t.Errorf("PTX stream (%d instrs) should be shorter than SASS (%d)",
			rp.WarpInstrs, rs.WarpInstrs)
	}
}

func TestMixedLevelsRejected(t *testing.T) {
	arch := config.Volta()
	s := mustNew(t, arch)
	b := ubench.DivergenceBench(arch, ubench.Quick, core.MixIntAdd, 32)
	kp := traceOf(t, b, isa.PTX)
	ks := traceOf(t, b, isa.SASS)
	if _, err := s.Run(kp, ks); err == nil {
		t.Error("mixed ISA levels accepted")
	}
	if _, err := s.Run(); err == nil {
		t.Error("empty run accepted")
	}
}

// The simulator must track — but not equal — the golden device: cycle
// counts within tens of percent, not identical on memory-bound kernels.
func TestSimTracksSiliconTiming(t *testing.T) {
	arch := config.Volta()
	s := mustNew(t, arch)
	d, err := silicon.NewDevice(arch)
	if err != nil {
		t.Fatal(err)
	}
	benches, err := ubench.Suite(arch, ubench.Quick)
	if err != nil {
		t.Fatal(err)
	}
	var memDiffers bool
	for _, b := range benches {
		switch b.Name {
		case "l1_chase", "l2_chase", "dram_stream_read", "int_add", "fp_fma":
		default:
			continue
		}
		kt := traceOf(t, b, isa.SASS)
		r, err := s.Run(kt)
		if err != nil {
			t.Fatal(err)
		}
		m, err := d.Run(kt)
		if err != nil {
			t.Fatal(err)
		}
		ratio := r.Cycles / m.Cycles
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("%s: sim/silicon cycle ratio %.2f out of band", b.Name, ratio)
		}
		if ratio != 1 {
			memDiffers = true
		}
	}
	if !memDiffers {
		t.Error("simulator timing identical to silicon everywhere; models must be independent")
	}
}

func TestHalfWarpThroughputInSim(t *testing.T) {
	arch := config.Volta()
	s := mustNew(t, arch)
	// Single-unit kernel at 16 vs 32 lanes: the 32-lane version needs
	// roughly twice the FU slots (two half-warps), so it should take
	// noticeably longer despite having the same instruction count per
	// warp.
	b16 := ubench.DivergenceBench(arch, ubench.Quick, core.MixIntMul, 16)
	b32 := ubench.DivergenceBench(arch, ubench.Quick, core.MixIntMul, 32)
	r16, err := s.Run(traceOf(t, b16, isa.SASS))
	if err != nil {
		t.Fatal(err)
	}
	r32, err := s.Run(traceOf(t, b32, isa.SASS))
	if err != nil {
		t.Fatal(err)
	}
	ratio := r32.Cycles / r16.Cycles
	if ratio < 1.5 {
		t.Errorf("32-lane/16-lane cycle ratio %.2f; half-warp execution should approach 2", ratio)
	}
}
