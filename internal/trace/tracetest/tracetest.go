// Package tracetest is test support for traces. Walk is the reference for
// the censuses that count each distinct record stream once: it visits every
// warp's records one by one, whether or not warps share them. Unshared
// copies a trace so that no two warps share records.
package tracetest

import (
	"accelwattch/internal/isa"
	"accelwattch/internal/trace"
)

// Walk returns the statistics of kt and its active lanes per opcode,
// counted record by record over every warp.
func Walk(kt *trace.KernelTrace) (s trace.Stats, opLanes [isa.NumOps]int64) {
	s = trace.Stats{WarpCount: len(kt.Warps), UnitCounts: make(map[isa.Unit]int64)}
	var buf [32]uint64
	for wi := range kt.Warps {
		wt := &kt.Warps[wi]
		mi := 0
		for _, r := range wt.Recs {
			in := kt.Instr(r)
			info := in.Op.Info()
			lanes := int64(r.ActiveLanes())
			s.DynInstrs++
			s.ThreadInstrs += lanes
			s.OpCounts[in.Op]++
			opLanes[in.Op] += lanes
			s.UnitCounts[info.Unit]++
			if !info.IsMem {
				continue
			}
			acc := kt.Access(wt.Mem[mi], r.Mask)
			mi++
			s.MemAccesses++
			switch in.Space {
			case isa.SpaceGlobal:
				s.GlobalLines += int64(len(acc.Blocks(&buf, 128)))
			case isa.SpaceShared:
				s.SharedBankMax = max(s.SharedBankMax, int64(acc.BankConflicts()))
			}
		}
	}
	if s.DynInstrs > 0 {
		s.AvgLanes = float64(s.ThreadInstrs) / float64(s.DynInstrs)
	}
	return s, opLanes
}

// Unshared returns a copy of kt in which every warp owns its records. The
// kernel, the address entries and the arena are kt's.
func Unshared(kt *trace.KernelTrace) *trace.KernelTrace {
	out := *kt
	out.Warps = make([]trace.WarpTrace, len(kt.Warps))
	for i, wt := range kt.Warps {
		wt.Recs = append([]trace.Rec(nil), wt.Recs...)
		out.Warps[i] = wt
	}
	return &out
}
