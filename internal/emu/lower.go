package emu

import (
	"fmt"

	"accelwattch/internal/isa"
	"accelwattch/internal/trace"
)

// Lower returns the trace Run gives for isa.Lower(kt.Kernel), built from
// kt, a trace Run gave for a PTX-level kernel, without emulating again.
//
// isa.Lower changes only the instruction stream. It passes memory
// instructions through, copies every guard, remaps branch targets, and
// expands PTX-only ALU opcodes into sequences whose instructions all
// change no state but the last, which carries the PTX semantics. So the
// lowered kernel takes the same branches under the same masks and issues
// the same lane addresses in the same order. Each record becomes its
// opcode's expansion at the lowered PCs, all under the record's mask.
//
// The lowered trace shares what the two levels have in common: every
// warp's Mem and the Addrs arena are kt's, and when no opcode of the
// kernel expands, so is the whole Warps slice. Warps that share a record
// slice in kt share its lowered slice, so Streams groups the warps as it
// does in the trace Run gives.
//
// Lowered records count against MaxDynInstrsPerWarp per warp and
// MaxTraceRecords per launch. When Run would exceed either at SASS, Lower
// returns the error Run returns, ErrTraceBudget or not: it replays the
// order in which Run executes a CTA's warps between barriers to find the
// bound Run reaches first. The address and image budgets are the same at
// both levels, and the PTX run kept within them.
func Lower(kt *trace.KernelTrace) (*trace.KernelTrace, error) {
	k, err := isa.Lower(kt.Kernel)
	if err != nil {
		return nil, fmt.Errorf("emu: %w", err)
	}
	// at[pc] is the lowered PC of PTX instruction pc's first instruction,
	// and at[pc+1]-at[pc] the length of its expansion.
	code := kt.Kernel.Code
	at := make([]int32, len(code)+1)
	for pc := range code {
		at[pc+1] = at[pc] + int32(isa.ExpansionLen(code[pc].Op))
	}
	out := &trace.KernelTrace{Kernel: k, Warps: kt.Warps, Addrs: kt.Addrs}
	if int(at[len(code)]) == len(code) {
		return out, nil
	}
	type stream struct {
		first *trace.Rec
		n     int
	}
	lowered := make(map[stream][]trace.Rec)
	out.Warps = make([]trace.WarpTrace, len(kt.Warps))
	records := 0
	for wi := range kt.Warps {
		wt := kt.Warps[wi]
		if len(wt.Recs) > 0 {
			key := stream{&wt.Recs[0], len(wt.Recs)}
			recs, ok := lowered[key]
			if !ok {
				n := 0
				for _, r := range wt.Recs {
					n += int(at[r.PC+1] - at[r.PC])
				}
				if n > MaxDynInstrsPerWarp {
					return nil, budgetError(kt, at)
				}
				recs = make([]trace.Rec, 0, n)
				for _, r := range wt.Recs {
					for pc := at[r.PC]; pc < at[r.PC+1]; pc++ {
						recs = append(recs, trace.Rec{PC: pc, Mask: r.Mask})
					}
				}
				lowered[key] = recs
			}
			wt.Recs = recs
		}
		if records += len(wt.Recs); records > MaxTraceRecords {
			return nil, budgetError(kt, at)
		}
		out.Warps[wi] = wt
	}
	return out, nil
}

// budgetError returns the error Run gives when it exceeds a record bound
// at SASS, for a PTX trace whose lowered records exceed one. Run executes
// CTAs in order and a CTA's warps in rounds: each warp runs through its
// next barrier, or to its end, before the next warp runs. It checks a
// warp's step count before the launch's record count, at every record.
func budgetError(kt *trace.KernelTrace, at []int32) error {
	k := kt.Kernel
	nWarps := k.Warps()
	pos := make([]int, nWarps)   // the next PTX record of each warp
	steps := make([]int, nWarps) // each warp's lowered records so far
	records := 0
	for first := 0; first < len(kt.Warps); first += nWarps {
		cta := kt.Warps[first : first+nWarps]
		clear(pos)
		clear(steps)
		for running := true; running; {
			running = false
			for w := range cta {
				recs := cta[w].Recs
				for pos[w] < len(recs) {
					r := recs[pos[w]]
					pos[w]++
					for range at[r.PC+1] - at[r.PC] {
						if steps[w]++; steps[w] > MaxDynInstrsPerWarp {
							return stepsError(k.Name, cta[w].CTA, cta[w].Warp)
						}
						if records++; records > MaxTraceRecords {
							return recordsError(k.Name)
						}
					}
					if k.Code[r.PC].Op == isa.OpBAR {
						break
					}
				}
				running = running || pos[w] < len(recs)
			}
		}
	}
	panic("emu: budgetError called for a trace within its record bounds")
}
