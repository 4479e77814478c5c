package sim

import (
	"fmt"
	"math/bits"
	"sort"

	"accelwattch/internal/core"
	"accelwattch/internal/isa"
	"accelwattch/internal/trace"
)

// SchedPolicy selects the warp scheduler of the cycle-accurate replay.
type SchedPolicy int

const (
	// GTO is greedy-then-oldest: keep issuing from the same warp until
	// it stalls, then fall back to the oldest ready warp (Accel-Sim's
	// default policy).
	GTO SchedPolicy = iota
	// LRR is loose round-robin.
	LRR
)

// runCycleAccurate replays a trace with an explicit per-cycle loop — warp
// schedulers, functional-unit pipelines with half-warp occupancy, a
// register scoreboard, and DRAM bandwidth arbitration — instead of the
// interval analysis used by Run. It is an order of magnitude slower and is
// the tests' oracle for the interval model (and for scheduler policies);
// activity counts are identical by construction, so only the cycle count
// differs.
func (s *Simulator) runCycleAccurate(policy SchedPolicy, kts ...*trace.KernelTrace) (*Result, error) {
	if len(kts) == 0 {
		return nil, fmt.Errorf("sim: no traces to run")
	}
	level := kts[0].Kernel.Level
	for _, kt := range kts {
		if kt.Kernel.Level != level {
			return nil, fmt.Errorf("sim: mixed ISA levels in one run")
		}
	}
	secBytes := uint64(32)
	if level == isa.PTX {
		secBytes = 128
	}
	arch := s.arch

	type warpState struct {
		kt     *trace.KernelTrace
		wi     int
		cursor int                // next record
		mem    int                // next memory record's address entry
		wb     [isa.NumRegs]int64 // register-ready cycles
	}
	type smState struct {
		warps   [][]*warpState // per scheduler
		greedy  []int          // GTO: index of the warp issued last
		fuBusy  [][9]int64     // per scheduler, per unit: busy-until cycle
		pending int            // warps not yet finished
	}

	sms := make(map[int]*smState)
	smFor := func(idx int) *smState {
		st, ok := sms[idx]
		if !ok {
			st = &smState{
				warps:  make([][]*warpState, 4),
				greedy: make([]int, 4),
				fuBusy: make([][9]int64, 4),
			}
			sms[idx] = st
		}
		return st
	}
	l2, l1For, err := s.buildCaches()
	if err != nil {
		return nil, err
	}

	res := &Result{OpCounts: make(map[isa.Op]int64)}
	act := &res.Aggregate
	var laneSum float64
	warpIdxInSM := map[int]int{}
	totalWarps := 0
	ctaBase := 0
	for _, kt := range kts {
		for wi := range kt.Warps {
			smIdx := (ctaBase + kt.Warps[wi].CTA) % arch.NumSMs
			st := smFor(smIdx)
			sched := warpIdxInSM[smIdx] % 4
			warpIdxInSM[smIdx]++
			st.warps[sched] = append(st.warps[sched], &warpState{kt: kt, wi: wi})
			st.pending++
			totalWarps++
		}
		ctaBase += kt.Kernel.Grid.Count()
	}
	if totalWarps == 0 {
		return nil, fmt.Errorf("sim: empty traces")
	}
	// Deterministic SM iteration order: map order is randomised, and the
	// SMs share the L2, so access order must be stable run to run.
	smOrder := make([]int, 0, len(sms))
	for idx := range sms {
		smOrder = append(smOrder, idx)
	}
	sort.Ints(smOrder)

	// DRAM bandwidth arbitration: a miss cannot complete before the
	// global DRAM channel frees up.
	bytesPerCycle := arch.DRAMGBps * 1e9 * simDRAMEfficiency / (arch.BaseClockMHz * 1e6)
	var dramFree float64
	var dramBytes float64

	var cycle int64
	remaining := totalWarps
	const maxCycles = 64 << 20
	for remaining > 0 {
		if cycle > maxCycles {
			return nil, fmt.Errorf("sim: cycle-accurate replay exceeded %d cycles", int64(maxCycles))
		}
		for _, smIdx := range smOrder {
			st := sms[smIdx]
			for sched := 0; sched < 4; sched++ {
				ws := st.warps[sched]
				if len(ws) == 0 {
					continue
				}
				// Candidate order: GTO tries the greedy warp first,
				// then oldest; LRR rotates.
				issued := false
				n := len(ws)
				for k := 0; k < n && !issued; k++ {
					var idx int
					if policy == GTO {
						idx = (st.greedy[sched] + k) % n
					} else {
						idx = (int(cycle) + k) % n
					}
					w := ws[idx]
					wt := &w.kt.Warps[w.wi]
					if w.cursor >= len(wt.Recs) {
						continue
					}
					r := wt.Recs[w.cursor]
					in := w.kt.Instr(r)
					op := in.Op
					info := op.Info()
					// Structural hazard: unit busy.
					if st.fuBusy[sched][info.Unit] > cycle {
						continue
					}
					// Data hazard: sources not ready.
					ready := true
					for so := 0; so < int(in.NSrc); so++ {
						if w.wb[in.Srcs[so]] > cycle {
							ready = false
							break
						}
					}
					if !ready {
						continue
					}

					// Issue.
					lanes := bits.OnesCount32(r.Mask)
					var acc trace.Access
					if info.IsMem {
						acc = w.kt.Access(wt.Mem[w.mem], r.Mask)
						w.mem++
					}
					var lat float64
					switch {
					case op == isa.OpNANOSLEEP:
						lat = float64(in.Imm)
					case info.IsMem && lanes > 0:
						st2 := &smAcct{}
						lat = s.memAccess(act, act, st2, in, acc, l1For(smIdx), l2, &dramBytes, secBytes)
						// DRAM arbitration: pushes the latency out
						// when the channel is saturated.
						if bytesNow := dramBytes; bytesNow > 0 {
							need := bytesNow / bytesPerCycle
							if need > dramFree {
								dramFree = need
							}
							if wait := dramFree - float64(cycle); wait > lat {
								lat = wait
							}
						}
					default:
						lat = s.lat[op]
						// Count compute/front-end activity (memAccess
						// covers memory recs' component counts; all
						// recs get the front-end charge below).
					}
					if !info.IsMem {
						fl := float64(lanes)
						act.Counts[core.OpComponent(op)] += fl
					}
					fl := float64(lanes)
					rfOperands := float64(in.NSrc)
					if info.WritesReg {
						rfOperands++
					}
					act.Counts[core.CompRF] += rfOperands * fl
					act.Counts[core.CompIBUF]++
					act.Counts[core.CompICACHE] += core.ICacheFetchFraction
					act.Counts[core.CompSCHED]++
					act.Counts[core.CompPIPE]++
					res.OpCounts[op]++
					res.WarpInstrs++
					laneSum += fl

					if info.WritesReg && !in.SemNop {
						w.wb[in.Dst] = cycle + int64(lat)
					}
					st.fuBusy[sched][info.Unit] = cycle + int64(unitPasses(r.Mask, info.Unit))
					w.cursor++
					if w.cursor >= len(wt.Recs) {
						st.pending--
						remaining--
					}
					st.greedy[sched] = idx
					issued = true
				}
			}
		}
		cycle++
	}

	res.Cycles = float64(cycle)
	res.ActiveSMs = len(sms)
	if res.WarpInstrs > 0 {
		res.AvgLanes = laneSum / float64(res.WarpInstrs)
	}
	act.Cycles = res.Cycles
	act.ActiveSMs = float64(res.ActiveSMs)
	act.AvgLanes = res.AvgLanes
	act.Mix = core.ClassifyMix(core.MixInputFromOpCounts(res.OpCounts, res.Cycles, act.ActiveSMs))
	res.Windows = resampleWindows([]core.Activity{*act}, res.Cycles, act)
	return res, nil
}
