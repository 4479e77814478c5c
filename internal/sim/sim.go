// Package sim is the framework's performance simulator — the stand-in for
// Accel-Sim v1.1 (Section 5.2). It replays kernel traces (SASS or PTX
// level) on its own cycle-timing model and produces the activity vectors
// that drive the AccelWattch power model, in sampling windows of 500 cycles.
//
// The simulator is intentionally an *independent* model from the synthetic
// silicon in package silicon: its functional-unit latencies, cache
// geometries/policies, and DRAM model differ, so its cycle counts and miss
// rates track — but do not equal — the golden device's, reproducing the
// performance-model error that the paper shows feeding into power error
// (e.g. the kmeans L1 miss-rate mismatch discussed in Section 7.1).
package sim

import (
	"fmt"
	"math"
	"math/bits"

	"accelwattch/internal/cachesim"
	"accelwattch/internal/config"
	"accelwattch/internal/core"
	"accelwattch/internal/isa"
	"accelwattch/internal/trace"
)

// SamplePeriod is the power-sampling window in core cycles (Section 5.2).
const SamplePeriod = 500

// Simulator runs traces for one architecture configuration.
type Simulator struct {
	arch *config.Arch
	lat  [isa.NumOps]float64
}

// New builds a simulator for an architecture.
func New(arch *config.Arch) (*Simulator, error) {
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	return &Simulator{arch: arch, lat: simLatencies()}, nil
}

// buildCaches constructs the simulator's L2 plus a lazy per-SM L1 factory.
// Both configurations are validated here so cache construction inside the
// replay loop cannot fail: a bad cache geometry surfaces as a returned
// error before any simulation work, not a panic mid-run.
func (s *Simulator) buildCaches() (*cachesim.Cache, func(int) *cachesim.Cache, error) {
	arch := s.arch
	l2cfg := cachesim.Config{
		SizeBytes: arch.L2KB * 1024, LineBytes: arch.L2LineBytes,
		Assoc: arch.L2Assoc / 2, Sectored: false, WriteAllocate: true,
	}
	l1cfg := cachesim.Config{
		SizeBytes: arch.L1KBPerSM * 1024, LineBytes: arch.L1LineBytes,
		Assoc: arch.L1Assoc * 2, Sectored: false, WriteAllocate: true,
	}
	l2, err := cachesim.New(l2cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("sim: L2 model: %w", err)
	}
	if err := l1cfg.Validate(); err != nil {
		return nil, nil, fmt.Errorf("sim: L1 model: %w", err)
	}
	l1s := make(map[int]*cachesim.Cache)
	l1For := func(sm int) *cachesim.Cache {
		c, ok := l1s[sm]
		if !ok {
			c, _ = cachesim.New(l1cfg) // validated above; cannot fail
			l1s[sm] = c
		}
		return c
	}
	return l2, l1For, nil
}

// Arch returns the simulated architecture.
func (s *Simulator) Arch() *config.Arch { return s.arch }

// simLatencies is the simulator's own latency table; close to the golden
// device but not identical (Accel-Sim is validated to ~0.97 correlation,
// not to equality).
func simLatencies() [isa.NumOps]float64 {
	var l [isa.NumOps]float64
	for op := isa.Op(1); int(op) < isa.NumOps; op++ {
		l[op] = 4
	}
	set := func(v float64, ops ...isa.Op) {
		for _, op := range ops {
			l[op] = v
		}
	}
	set(4, isa.OpIMUL, isa.OpIMAD)
	set(10, isa.OpDADD, isa.OpDMUL, isa.OpDFMA)
	set(18, isa.OpMUFURCP, isa.OpMUFUSQRT, isa.OpMUFULG2, isa.OpMUFUEX2,
		isa.OpMUFUSIN, isa.OpMUFUCOS)
	set(8, isa.OpRRO)
	set(22, isa.OpHMMA)
	set(1, isa.OpBRA, isa.OpEXIT, isa.OpBAR, isa.OpNOP, isa.OpNANOSLEEP)
	// PTX-only virtual instructions (used in PTX-mode simulation).
	set(20, isa.OpDIVS32, isa.OpREMS32, isa.OpDIVF32)
	set(19, isa.OpSQRTF32, isa.OpRSQRTF32, isa.OpSINF32, isa.OpCOSF32,
		isa.OpEXPF32, isa.OpLOGF32)
	set(5, isa.OpADDS64)
	return l
}

// Sim memory latencies (cycles at base clock) and policies.
const (
	simLatL1Hit  = 33
	simLatL2Hit  = 174
	simLatDRAM   = 396
	simLatShared = 26
	simLatConst  = 12
	simLatTex    = 92
	// The simulator credits only a fraction of peak DRAM bandwidth
	// (command overheads it does not model in detail).
	simDRAMEfficiency = 0.85
)

// Result is one simulation outcome.
type Result struct {
	Cycles    float64
	ActiveSMs int

	// Aggregate is the whole-run activity vector; Windows divides it
	// into SamplePeriod-cycle windows for cycle-level power traces.
	Aggregate core.Activity
	Windows   []core.Activity

	// Instruction census for reporting, indexed by opcode.
	OpCounts   [isa.NumOps]int64
	WarpInstrs int64
	AvgLanes   float64
}

type smAcct struct {
	issue    [4]float64
	fuSlots  [4][9]float64
	l1Trans  float64
	maxWarpT float64
	laneMask uint32
	used     bool
}

// Run simulates one or more concurrent kernel traces and returns the
// activity the power model consumes. All traces must share one ISA level.
func (s *Simulator) Run(kts ...*trace.KernelTrace) (*Result, error) {
	if len(kts) == 0 {
		return nil, fmt.Errorf("sim: no traces to run")
	}
	level := kts[0].Kernel.Level
	for _, kt := range kts {
		if kt.Kernel.Level != level {
			return nil, fmt.Errorf("sim: mixed ISA levels in one run")
		}
	}

	arch := s.arch
	res := &Result{}
	act := &res.Aggregate

	// PTX-mode simulation uses the legacy 128-byte-line coalescer (as
	// GPGPU-Sim's virtual-ISA memory model does); SASS mode coalesces at
	// 32-byte sector granularity. This is one of the documented sources
	// of PTX SIM inaccuracy (Section 6.2, [14]).
	secBytes := uint64(32)
	if level == isa.PTX {
		secBytes = 128
	}

	sms := make([]smAcct, arch.NumSMs)
	l2, l1For, err := s.buildCaches()
	if err != nil {
		return nil, err
	}
	var dramBytes float64
	var laneSum float64

	// Per-window activity for the cycle-level power trace: each record
	// is bucketed by its issue time, so kernel phases (memory-bound
	// prologue, compute epilogue) appear as distinct power levels.
	type winAcct struct {
		act     core.Activity
		ops     [isa.NumOps]int64
		laneSum float64
		instrs  float64
	}
	var wins []*winAcct
	winFor := func(t float64) *winAcct {
		idx := int(t / SamplePeriod)
		if idx < 0 {
			idx = 0
		}
		for len(wins) <= idx {
			wins = append(wins, &winAcct{})
		}
		return wins[idx]
	}

	warpIdxInSM := make([]int, arch.NumSMs)
	ctaBase := 0
	for _, kt := range kts {
		code := kt.Kernel.Code
		for wi := range kt.Warps {
			wt := &kt.Warps[wi]
			sm := (ctaBase + wt.CTA) % arch.NumSMs
			st := &sms[sm]
			st.used = true
			sched := warpIdxInSM[sm] % 4
			warpIdxInSM[sm]++

			var wb [isa.NumRegs]float64
			tIssue := -1.0
			mi := 0
			for _, r := range wt.Recs {
				in := &code[r.PC]
				op := in.Op
				info := op.Info()
				lanes := bits.OnesCount32(r.Mask)
				st.laneMask |= r.Mask

				start := tIssue + 1
				for so := 0; so < int(in.NSrc); so++ {
					if w := wb[in.Srcs[so]]; w > start {
						start = w
					}
				}
				wa := winFor(start)
				lat := s.lat[op]
				var acc trace.Access
				if info.IsMem {
					acc = kt.Access(wt.Mem[mi], r.Mask)
					mi++
				}
				switch {
				case op == isa.OpNANOSLEEP:
					lat = float64(in.Imm)
				case info.IsMem && lanes > 0:
					lat = s.memAccess(act, &wa.act, st, in, acc, l1For(sm), l2, &dramBytes, secBytes)
				}
				if info.WritesReg && !in.SemNop {
					wb[in.Dst] = start + lat
				}
				tIssue = start
				if e := start + lat; e > st.maxWarpT {
					st.maxWarpT = e
				}
				st.issue[sched]++
				st.fuSlots[sched][info.Unit] += unitPasses(r.Mask, info.Unit)

				// Power-model activity counts.
				fl := float64(lanes)
				rfOperands := float64(in.NSrc)
				if info.WritesReg {
					rfOperands++
				}
				for _, dst := range [2]*core.Activity{act, &wa.act} {
					dst.Counts[core.OpComponent(op)] += fl
					dst.Counts[core.CompRF] += rfOperands * fl
					dst.Counts[core.CompIBUF]++
					dst.Counts[core.CompICACHE] += core.ICacheFetchFraction
					dst.Counts[core.CompSCHED]++
					dst.Counts[core.CompPIPE]++
				}
				wa.ops[op]++
				wa.laneSum += fl
				wa.instrs++

				res.OpCounts[op]++
				res.WarpInstrs++
				laneSum += fl
			}
		}
		ctaBase += kt.Kernel.Grid.Count()
	}

	// Time bounds.
	var cycles float64
	for i := range sms {
		st := &sms[i]
		if !st.used {
			continue
		}
		res.ActiveSMs++
		smT := st.maxWarpT
		for sc := 0; sc < 4; sc++ {
			if st.issue[sc] > smT {
				smT = st.issue[sc]
			}
			for u := range st.fuSlots[sc] {
				if st.fuSlots[sc][u] > smT {
					smT = st.fuSlots[sc][u]
				}
			}
		}
		if b := st.l1Trans / 4; b > smT {
			smT = b
		}
		if smT > cycles {
			cycles = smT
		}
	}
	if b := float64(l2.Stats().Accesses) / float64(arch.L2Slices); b > cycles {
		cycles = b
	}
	bytesPerCycle := arch.DRAMGBps * 1e9 * simDRAMEfficiency / (arch.BaseClockMHz * 1e6)
	if b := dramBytes / bytesPerCycle; b > cycles {
		cycles = b
	}
	if cycles < 1 {
		cycles = 1
	}
	res.Cycles = cycles

	if res.WarpInstrs > 0 {
		res.AvgLanes = laneSum / float64(res.WarpInstrs)
	}
	act.Cycles = cycles
	act.ActiveSMs = float64(res.ActiveSMs)
	act.AvgLanes = res.AvgLanes
	act.Mix = core.ClassifyMix(core.MixInputFromOpCounts(res.OpCounts, cycles, float64(res.ActiveSMs)))

	// Assemble the sampling windows (Section 5.2). Records were bucketed
	// by warp-local issue time; the chip-level timeline is longer when a
	// throughput bound dominates, so the buckets are resampled onto the
	// final cycle count. Window context (mix, lane occupancy) comes from
	// each bucket's own instruction census.
	src := make([]core.Activity, len(wins))
	for i, wa := range wins {
		w := wa.act
		w.Cycles = SamplePeriod
		w.ActiveSMs = act.ActiveSMs
		if wa.instrs > 0 {
			w.AvgLanes = wa.laneSum / wa.instrs
		} else {
			w.AvgLanes = act.AvgLanes
		}
		w.Mix = core.ClassifyMix(core.MixInputFromOpCounts(wa.ops, SamplePeriod, act.ActiveSMs))
		src[i] = w
	}
	res.Windows = resampleWindows(src, cycles, act)
	return res, nil
}

// resampleWindows stretches warp-local-time window buckets onto the final
// chip timeline, preserving total activity. Each target window inherits the
// mix and lane occupancy of its dominant source bucket.
func resampleWindows(src []core.Activity, cycles float64, agg *core.Activity) []core.Activity {
	if len(src) == 0 || cycles <= 0 {
		return nil
	}
	n := int(math.Ceil(cycles / SamplePeriod))
	if n < 1 {
		n = 1
	}
	out := make([]core.Activity, n)
	weight := make([]float64, n)   // dominant-source weight per target
	lanesAcc := make([]float64, n) // activity-weighted lane occupancy
	wsum := make([]float64, n)
	stretch := float64(n) / float64(len(src))
	for j := range src {
		lo, hi := float64(j)*stretch, float64(j+1)*stretch
		for k := int(lo); k < n && float64(k) < hi; k++ {
			ov := math.Min(hi, float64(k+1)) - math.Max(lo, float64(k))
			if ov <= 0 {
				continue
			}
			frac := ov / (hi - lo)
			var contrib float64
			for c := 0; c < core.NumDynComponents; c++ {
				amt := src[j].Counts[c] * frac
				out[k].Counts[c] += amt
				contrib += amt
			}
			lanesAcc[k] += src[j].AvgLanes * contrib
			wsum[k] += contrib
			if contrib > weight[k] {
				weight[k] = contrib
				out[k].Mix = src[j].Mix
			}
		}
	}
	for k := range out {
		out[k].Cycles = SamplePeriod
		if k == n-1 {
			if rem := cycles - float64(n-1)*SamplePeriod; rem > 1 {
				out[k].Cycles = rem
			}
		}
		out[k].ActiveSMs = agg.ActiveSMs
		if wsum[k] > 0 {
			out[k].AvgLanes = lanesAcc[k] / wsum[k]
		} else {
			out[k].AvgLanes = agg.AvgLanes
			out[k].Mix = agg.Mix
		}
	}
	return out
}

// memAccess resolves one memory instruction through the simulator's own
// hierarchy, updating activity counts and returning the exposed latency.
func (s *Simulator) memAccess(act, wact *core.Activity, st *smAcct, in *isa.Instr, acc trace.Access,
	l1, l2 *cachesim.Cache, dramBytes *float64, secBytes uint64) float64 {

	addCount := func(c core.Component, n float64) {
		act.Counts[c] += n
		wact.Counts[c] += n
	}

	var buf [32]uint64
	switch in.Space {
	case isa.SpaceShared:
		p := float64(acc.BankConflicts())
		if p < 1 {
			p = 1
		}
		addCount(core.CompSHMEM, p)
		return simLatShared + (p-1)*2

	case isa.SpaceConst:
		addCount(core.CompCCACHE, 1)
		return simLatConst

	case isa.SpaceTexture:
		addCount(core.CompTEX, float64(len(acc.Blocks(&buf, 32))))
		return simLatTex

	case isa.SpaceGlobal:
		write := in.Op == isa.OpSTG
		atomic := in.Op == isa.OpATOMG
		maxLat := 0.0
		for _, sector := range acc.Blocks(&buf, secBytes) {
			st.l1Trans++
			addCount(core.CompL1D, 1)
			var lat float64
			if atomic {
				l2res := l2.Access(sector, true)
				addCount(core.CompL2NOC, 2)
				lat = simLatL2Hit + 24
				if !l2res.Hit {
					lat += simLatDRAM - simLatL2Hit
					addCount(core.CompDRAMMC, 1)
					*dramBytes += float64(l2.Config().LineBytes)
				}
				if l2res.Writeback {
					addCount(core.CompDRAMMC, 1)
					*dramBytes += float64(l2.Config().LineBytes)
				}
			} else {
				res := l1.Access(sector, write)
				if res.Hit {
					lat = simLatL1Hit
				} else {
					addCount(core.CompL2NOC, 1)
					l2res := l2.Access(sector, write)
					lat = simLatL2Hit
					if !l2res.Hit {
						lat = simLatDRAM
						addCount(core.CompDRAMMC, 1)
						*dramBytes += float64(l2.Config().LineBytes)
					}
					if l2res.Writeback {
						addCount(core.CompDRAMMC, 1)
						*dramBytes += float64(l2.Config().LineBytes)
					}
				}
			}
			if write {
				lat = s.lat[in.Op]
			}
			if lat > maxLat {
				maxLat = lat
			}
		}
		return maxLat
	}
	return s.lat[in.Op]
}

// unitPasses mirrors the half-warp issue structure (Section 4.4): 16-lane
// units execute a warp as two half-warps, skipping an empty half.
func unitPasses(mask uint32, unit isa.Unit) float64 {
	groups := func(groupLanes uint) float64 {
		n := 0.0
		for off := uint(0); off < 32; off += groupLanes {
			if mask>>off&((1<<groupLanes)-1) != 0 {
				n++
			}
		}
		return n
	}
	switch unit {
	case isa.UnitALU, isa.UnitFPU:
		return groups(16)
	case isa.UnitDPU, isa.UnitMem:
		return groups(8)
	case isa.UnitSFU:
		return groups(4)
	case isa.UnitTensor:
		return 4
	default:
		return 1
	}
}
