package tune

import (
	"fmt"

	"accelwattch/internal/core"
	"accelwattch/internal/isa"
	"accelwattch/internal/trace"
)

// Variant selects how AccelWattch is driven (Section 2): by the software
// performance model at SASS or PTX level, by hardware performance counters,
// or by a hybrid of the two.
type Variant int

const (
	SASSSIM Variant = iota
	PTXSIM
	HW
	HYBRID

	NumVariants
)

var variantNames = [NumVariants]string{"SASS_SIM", "PTX_SIM", "HW", "HYBRID"}

func (v Variant) String() string {
	if v >= 0 && v < NumVariants {
		return variantNames[v]
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Variants lists all four in presentation order.
func Variants() []Variant { return []Variant{SASSSIM, PTXSIM, HW, HYBRID} }

// ParseVariant returns the variant whose wire name ("SASS_SIM", "PTX_SIM",
// "HW", "HYBRID") is name, and whether there is one.
func ParseVariant(name string) (Variant, bool) {
	for v, n := range variantNames {
		if n == name {
			return Variant(v), true
		}
	}
	return 0, false
}

// Activity assembles the activity vector of Eq. (12) for a workload under a
// variant:
//
//   - SASS SIM / PTX SIM: everything from the performance simulator run on
//     the SASS trace or the PTX (virtual ISA) execution;
//   - HW: instruction-level information from the SASS trace (as the paper
//     extracts from NVBit traces), runtime and memory-system counters from
//     the hardware profiler. Volta exposes no counters for the register
//     file, L1 instruction cache, or DRAM precharge, so those activities
//     are absent and the solver must lump their power elsewhere
//     (Section 6.2);
//   - HYBRID: HW, with the L2+NoC activity replaced by the simulator's —
//     the user-modelled-component scenario of Section 2.
func (tb *Testbench) Activity(w Workload, v Variant) (core.Activity, error) {
	switch v {
	case SASSSIM:
		r, err := tb.Simulate(w, isa.SASS)
		if err != nil {
			return core.Activity{}, err
		}
		return r.Aggregate, nil
	case PTXSIM:
		r, err := tb.Simulate(w, isa.PTX)
		if err != nil {
			return core.Activity{}, err
		}
		return r.Aggregate, nil
	case HW, HYBRID:
		return tb.hwActivity(w, v)
	}
	return core.Activity{}, fmt.Errorf("tune: unknown variant %v", v)
}

func (tb *Testbench) hwActivity(w Workload, v Variant) (core.Activity, error) {
	kt, err := tb.Trace(w, isa.SASS)
	if err != nil {
		return core.Activity{}, err
	}
	prof, err := tb.Profile(w)
	if err != nil {
		return core.Activity{}, err
	}

	// Census warp instructions and active lanes per opcode, then fold them
	// into the components once. Every partial sum is an integer below
	// 2^53, so the float components hold the bits a per-record sum gave.
	opCounts, opLanes := opCensus(kt)
	var a core.Activity
	var warpInstrs, laneSum int64
	for op, n := range opCounts {
		if n == 0 {
			continue
		}
		a.Counts[core.OpComponent(isa.Op(op))] += float64(opLanes[op])
		warpInstrs += n
		laneSum += opLanes[op]
	}
	a.Counts[core.CompIBUF] += float64(warpInstrs)
	a.Counts[core.CompSCHED] += float64(warpInstrs)
	a.Counts[core.CompPIPE] += float64(warpInstrs)
	// No hardware counters exist for the register file or the L1
	// instruction cache (shaded rows of Table 1): their activity is zero
	// in the HW-driven vector.
	a.Counts[core.CompRF] = 0
	a.Counts[core.CompICACHE] = 0

	// Memory-system activity from hardware counters.
	a.Counts[core.CompL1D] = float64(prof.L1Accesses)
	a.Counts[core.CompSHMEM] = float64(prof.SharedAccesses)
	a.Counts[core.CompCCACHE] = float64(prof.ConstAccesses)
	a.Counts[core.CompTEX] = float64(prof.TexAccesses)
	a.Counts[core.CompL2NOC] = float64(prof.L2Accesses)
	// DRAM read/write counters exist but there is no precharge counter;
	// reads+writes is all the HW variant can see.
	a.Counts[core.CompDRAMMC] = float64(prof.DramReads + prof.DramWrites)

	if v == HYBRID {
		// The HYBRID example of the paper replaces the L2+NoC counters
		// with Accel-Sim's.
		r, err := tb.Simulate(w, isa.SASS)
		if err != nil {
			return core.Activity{}, err
		}
		a.Counts[core.CompL2NOC] = r.Aggregate.Counts[core.CompL2NOC]
	}

	a.Cycles = prof.ElapsedCycles
	a.ActiveSMs = float64(prof.ActiveSMs)
	if warpInstrs > 0 {
		a.AvgLanes = float64(laneSum) / float64(warpInstrs)
	}
	a.Mix = core.ClassifyMix(core.MixInputFromOpCounts(opCounts, a.Cycles, a.ActiveSMs))
	return a, nil
}

// opCensus counts a trace's warp instructions and their active lanes per
// opcode. The counts depend only on each warp's records, so it walks each
// distinct stream once and multiplies by the warps that share it.
func opCensus(kt *trace.KernelTrace) (counts, lanes [isa.NumOps]int64) {
	for _, st := range kt.Streams() {
		for _, r := range st.Recs {
			op := kt.Instr(r).Op
			counts[op] += st.Warps
			lanes[op] += st.Warps * int64(r.ActiveLanes())
		}
	}
	return counts, lanes
}
