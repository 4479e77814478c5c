package silicon

import (
	"fmt"
	"math/bits"

	"accelwattch/internal/cachesim"
	"accelwattch/internal/isa"
	"accelwattch/internal/trace"
)

// This file keeps the single-pass replay as the tests' oracle for the
// two-pass one (footprint, then warpTime), the way sim keeps its
// cycle-accurate model. It walks every record through the caches, the
// energy and counter accounting and the scoreboard at the current clock,
// exactly as Device.Run and Device.Profile did before the split.

type oracleAcct struct {
	cycles       float64
	dynEnergyPJ  float64
	activeSMs    int
	poweredLanes float64 // sum over active SMs of powered (union) lanes
	counters     Counters
}

type oracleSM struct {
	issue    [4]float64
	fuSlots  [4][9]float64 // per scheduler, per isa.Unit
	l1Trans  float64
	maxWarpT float64
	laneSum  float64 // lane-weighted issue count (temporal lane gating)
	issued   float64
	used     bool
}

// replayOracle is the single-pass replay the two-pass one replaced: caches,
// energy, counters and the scoreboard in one walk, at the current clock.
func (d *Device) replayOracle(kts []*trace.KernelTrace) (*oracleAcct, error) {
	for _, kt := range kts {
		if kt.Kernel.Level != isa.SASS {
			return nil, fmt.Errorf("silicon: kernel %s is %v; real silicon executes SASS only",
				kt.Kernel.Name, kt.Kernel.Level)
		}
	}
	a := &oracleAcct{}
	t := d.t
	arch := d.arch
	latScale := d.clockMHz / arch.BaseClockMHz

	sms := make([]oracleSM, arch.NumSMs)
	l2cfg := cachesim.Config{
		SizeBytes: arch.L2KB * 1024, LineBytes: arch.L2LineBytes,
		Assoc: arch.L2Assoc, Sectored: true, WriteAllocate: true,
	}
	l1cfg := cachesim.Config{
		SizeBytes: arch.L1KBPerSM * 1024, LineBytes: arch.L1LineBytes,
		Assoc: arch.L1Assoc, Sectored: true, WriteAllocate: false,
	}
	l2, err := cachesim.New(l2cfg)
	if err != nil {
		return nil, fmt.Errorf("silicon: L2 model: %w", err)
	}
	if err := l1cfg.Validate(); err != nil {
		return nil, fmt.Errorf("silicon: L1 model: %w", err)
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
	rowState := make([]uint64, arch.DRAMChannels)
	for i := range rowState {
		rowState[i] = ^uint64(0)
	}
	var dramBytes float64

	// Assign warps to SMs round-robin by global CTA index across all
	// concurrent kernels, and to schedulers round-robin within the SM.
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
				st.laneSum += float64(lanes)
				st.issued++

				// Issue point: program order plus RAW dependencies.
				start := tIssue + 1
				for s := 0; s < int(in.NSrc); s++ {
					if w := wb[in.Srcs[s]]; w > start {
						start = w
					}
				}

				// Resolve latency and energy.
				lat := t.lat[op]
				var acc trace.Access
				if info.IsMem {
					acc = kt.Access(wt.Mem[mi], r.Mask)
					mi++
				}
				switch {
				case op == isa.OpNANOSLEEP:
					lat = float64(in.Imm) * latScale
				case info.IsMem && lanes > 0:
					lat = d.oracleMemAccess(a, st, in, acc, l1For(sm), l2, rowState, &dramBytes, latScale)
				}

				if info.WritesReg && !in.SemNop {
					wb[in.Dst] = start + lat
				}
				tIssue = start
				if e := start + lat; e > st.maxWarpT {
					st.maxWarpT = e
				}

				// Throughput accounting.
				st.issue[sched]++
				st.fuSlots[sched][info.Unit] += passes(r.Mask, info.Unit)

				// Dynamic energy: per-lane op energy, register file
				// (reads plus a write), and front-end overheads.
				ops := float64(lanes)
				rfOperands := float64(in.NSrc)
				if info.WritesReg {
					rfOperands++
				}
				a.dynEnergyPJ += t.opEnergyPJ[op]*ops +
					t.regFilePJ*rfOperands*ops +
					t.ibufPJ + t.schedPJ + t.pipePJ +
					t.l1iPJ*t.l1iPerInstr

				// Hardware counters.
				c := &a.counters
				c.InstIssued++
				c.ThreadInst += int64(lanes)
				switch info.Unit {
				case isa.UnitALU:
					c.InstINT++
				case isa.UnitFPU:
					c.InstFP32++
				case isa.UnitDPU:
					c.InstFP64++
				case isa.UnitSFU:
					c.InstSFU++
				case isa.UnitTensor:
					c.InstTensor++
				case isa.UnitTex:
					c.InstTex++
				case isa.UnitMem:
					c.InstLDST++
				default:
					c.InstCtrl++
				}
			}
		}
		ctaBase += kt.Kernel.Grid.Count()
	}

	// Per-SM time bounds.
	var chipCycles float64
	for i := range sms {
		st := &sms[i]
		if !st.used {
			continue
		}
		a.activeSMs++
		// Lanes power-gate when inactive, so the leaking lane count is
		// the time-weighted average of the active mask (Section 4.3).
		if st.issued > 0 {
			a.poweredLanes += st.laneSum / st.issued
		}
		smT := st.maxWarpT
		for s := 0; s < 4; s++ {
			if st.issue[s] > smT {
				smT = st.issue[s]
			}
			for u := range st.fuSlots[s] {
				if st.fuSlots[s][u] > smT {
					smT = st.fuSlots[s][u]
				}
			}
		}
		if b := st.l1Trans / 4; b > smT {
			smT = b
		}
		if smT > chipCycles {
			chipCycles = smT
		}
	}

	// Chip-level memory bounds (in core cycles at the current clock).
	l2Bound := float64(l2.Stats().Accesses) / float64(arch.L2Slices)
	if l2Bound > chipCycles {
		chipCycles = l2Bound
	}
	bytesPerCycle := arch.DRAMGBps * 1e9 / (d.clockMHz * 1e6)
	if b := dramBytes / bytesPerCycle; b > chipCycles {
		chipCycles = b
	}

	if chipCycles < 1 {
		chipCycles = 1
	}
	a.cycles = chipCycles

	// Fold cache statistics into the counter block.
	var l1a, l1m uint64
	for _, c := range l1s {
		s := c.Stats()
		l1a += s.Accesses
		l1m += s.Misses + s.SectorMisses
	}
	a.counters.L1Accesses = l1a
	a.counters.L1Misses = l1m
	l2s := l2.Stats()
	a.counters.L2Accesses = l2s.Accesses
	a.counters.L2Misses = l2s.Misses + l2s.SectorMisses
	a.counters.DramReads = l2s.Misses + l2s.SectorMisses
	a.counters.DramWrites = l2s.Writebacks
	return a, nil
}

// oracleMemAccess resolves one warp-level memory instruction through the memory
// hierarchy, charging energy and returning the exposed latency in cycles.
func (d *Device) oracleMemAccess(a *oracleAcct, st *oracleSM, in *isa.Instr, acc trace.Access,
	l1, l2 *cachesim.Cache, rowState []uint64, dramBytes *float64, latScale float64) float64 {

	t := d.t
	var buf [32]uint64
	switch in.Space {
	case isa.SpaceShared:
		passes := float64(acc.BankConflicts())
		if passes < 1 {
			passes = 1
		}
		a.dynEnergyPJ += t.sharedPJ * passes
		a.counters.SharedAccesses += uint64(passes)
		return t.latShared + (passes-1)*2

	case isa.SpaceConst:
		a.dynEnergyPJ += t.constPJ
		a.counters.ConstAccesses++
		return t.latConst

	case isa.SpaceTexture:
		n := float64(len(acc.Blocks(&buf, 32)))
		a.dynEnergyPJ += t.texPJ * n
		a.counters.TexAccesses += uint64(n)
		return t.latTex

	case isa.SpaceGlobal:
		write := in.Op == isa.OpSTG
		atomic := in.Op == isa.OpATOMG
		maxLat := 0.0
		for _, sector := range acc.Blocks(&buf, 32) {
			st.l1Trans++
			var lat float64
			switch {
			case atomic:
				// Atomics resolve at the L2.
				res := l2.Access(sector, true)
				a.dynEnergyPJ += 2*t.l2PJ + t.nocPJ
				a.counters.L2Accesses += 0 // counted by cache stats
				lat = t.latL2Hit*latScale + 20
				if !res.Hit {
					lat += t.latDRAM * latScale
					d.oracleDramAccess(a, sector, rowState, dramBytes, false)
				}
			default:
				res := l1.Access(sector, write)
				a.dynEnergyPJ += t.l1PJ
				switch {
				case res.Hit:
					lat = t.latL1Hit
				case res.SectorFill:
					a.dynEnergyPJ += t.sectorFillPJ + t.l2PJ + t.nocPJ
					lat = t.latSector * latScale
					l2res := l2.Access(sector, false)
					if !l2res.Hit {
						lat += (t.latDRAM - t.latL2Hit) * latScale
						d.oracleDramAccess(a, sector, rowState, dramBytes, false)
					}
				default:
					// Line (sector) miss: goes to L2 over the NoC.
					a.dynEnergyPJ += t.l2PJ + t.nocPJ
					l2res := l2.Access(sector, write)
					lat = t.latL2Hit * latScale
					if !l2res.Hit {
						lat = t.latDRAM * latScale
						d.oracleDramAccess(a, sector, rowState, dramBytes, write)
					}
					if l2res.Writeback {
						a.dynEnergyPJ += t.dramWrPJ + t.memCtrlPJ
						*dramBytes += 32
						a.counters.DramWrites++
					}
				}
			}
			if write {
				// Stores do not stall the warp.
				lat = t.lat[in.Op]
			}
			if lat > maxLat {
				maxLat = lat
			}
		}
		return maxLat
	}
	return t.lat[in.Op]
}

// oracleDramAccess charges DRAM access energy with a per-channel open-row model.
func (d *Device) oracleDramAccess(a *oracleAcct, sector uint64, rowState []uint64, dramBytes *float64, write bool) {
	t := d.t
	ch := (sector / 256) % uint64(len(rowState))
	row := sector / t.dramRowBytes
	if rowState[ch] != row {
		rowState[ch] = row
		a.dynEnergyPJ += t.dramActPJ
	}
	if write {
		a.dynEnergyPJ += t.dramWrPJ + t.memCtrlPJ
	} else {
		a.dynEnergyPJ += t.dramRdPJ + t.memCtrlPJ
	}
	*dramBytes += 32
}
