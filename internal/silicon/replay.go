package silicon

import (
	"fmt"
	"math/bits"

	"accelwattch/internal/cachesim"
	"accelwattch/internal/engine"
	"accelwattch/internal/isa"
	"accelwattch/internal/trace"
)

// The golden timing engine is an interval-analysis model: each warp's trace
// is walked once with a register scoreboard to get its dependency-limited
// time, while per-scheduler issue bandwidth, per-functional-unit half-warp
// slots, and memory-system bandwidth impose throughput bounds. The SM's
// time is the maximum of all bounds. This linear-time formulation keeps
// full-chip replays fast while preserving the behaviours that matter to the
// power model:
//
//   - half-warp execution: a warp instruction with active lanes confined to
//     one 16-lane half occupies its unit for one pass instead of two, so
//     single-unit kernels double their throughput at <=16 active lanes and
//     the measured power exhibits the paper's sawtooth (Section 4.4);
//   - with two or more units in the mix, the 1-instruction/cycle scheduler
//     becomes the bottleneck and the sawtooth flattens into the linear
//     model (Section 4.5);
//   - memory-bound kernels are limited by DRAM bytes per core cycle, so
//     their runtime in cycles shrinks at low clocks and total power
//     flattens, as real DVFS sweeps show.
//
// Only the memory latencies and the DRAM bound depend on the clock, so a
// replay takes two passes. footprint walks every record through the caches
// and DRAM rows, charges energy, fills the counters and the throughput
// bounds, and gives each memory record a latency class. warpTime walks the
// scoreboard at one clock, reading each memory record's latency from its
// class. A device memoizes both per trace (replayMemo).

// footprint is the clock-independent part of a replay.
type footprint struct {
	dynEnergyPJ  float64
	activeSMs    int
	poweredLanes float64 // sum over active SMs of powered (union) lanes
	counters     Counters
	// bound is the largest cycle bound that does not depend on the clock:
	// per-scheduler issue, per-unit slots and L1 transactions on each SM,
	// and L2 transactions per slice.
	bound     float64
	dramBytes float64
	// classes holds one latency class per memory record, in trace, warp
	// and record order.
	classes []uint8
}

// smLoad is one SM's share of a footprint.
type smLoad struct {
	issue   [4]float64
	fuSlots [4][9]float64 // per scheduler, per isa.Unit
	l1Trans float64
	laneSum float64 // lane-weighted issue count (temporal lane gating)
	issued  float64
	used    bool
	l1      *cachesim.Cache // built on the SM's first global access
}

// Latency classes. A memory record's class names the latencies whose
// maximum the record exposes; warpTime evaluates them at its clock.
// Classes 1 to 32 are a shared access's bank passes.
const (
	classOp     = 0    // the opcode's own latency: an empty mask, a global store
	classConst  = 33   // constant cache
	classTex    = 34   // texture unit
	classGlobal = 0x80 // a global load or atomic, ORed with its sector outcomes
)

// Sector outcomes of a global load or atomic, one bit each.
const (
	outL1Hit     = 1 << iota
	outFillL2Hit // sector fill on a resident L1 line, served by the L2
	outFillDRAM  // sector fill that misses the L2
	outMissL2Hit // L1 miss served by the L2
	outMissDRAM  // L1 miss that misses the L2
	outAtomL2Hit // atomics resolve at the L2
	outAtomDRAM
	numOutcomes = iota
)

// replayMemo holds each single trace's footprint, and its warp time at
// every clock it was replayed at. It is keyed by trace pointer, so a trace
// must not change after its first replay; traces are immutable once emu
// returns them. A device and its replicas share one memo; engine.Store
// makes it safe for concurrent use and computes each entry once.
type replayMemo struct {
	footprints *engine.Store[*trace.KernelTrace, *footprint]
	warpTimes  *engine.Store[clockedTrace, float64]
}

type clockedTrace struct {
	kt       *trace.KernelTrace
	clockMHz float64
}

func newReplayMemo() *replayMemo {
	return &replayMemo{
		footprints: engine.NewStore[*trace.KernelTrace, *footprint](),
		warpTimes:  engine.NewStore[clockedTrace, float64](),
	}
}

// replay returns the footprint of one or more concurrent kernel traces and
// their elapsed core cycles at the device's clock. A single trace goes
// through the memo; concurrent traces take both passes every time.
func (d *Device) replay(kts []*trace.KernelTrace) (*footprint, float64, error) {
	for _, kt := range kts {
		if kt.Kernel.Level != isa.SASS {
			return nil, 0, fmt.Errorf("silicon: kernel %s is %v; real silicon executes SASS only",
				kt.Kernel.Name, kt.Kernel.Level)
		}
	}
	if len(kts) != 1 {
		fp := d.footprint(kts)
		return fp, d.cycles(fp, d.warpTime(kts, fp.classes, d.latencies())), nil
	}
	// Neither pass can fail, so the stores never hold an error.
	fp, _ := d.memo.footprints.Do(kts[0], func() (*footprint, error) {
		return d.footprint(kts), nil
	})
	warpT, _ := d.memo.warpTimes.Do(clockedTrace{kts[0], d.clockMHz}, func() (float64, error) {
		return d.warpTime(kts, fp.classes, d.latencies()), nil
	})
	return fp, d.cycles(fp, warpT), nil
}

// cycles combines a footprint's clock-independent bound, the warp time and
// the DRAM-bandwidth bound at the device's clock into elapsed core cycles.
func (d *Device) cycles(fp *footprint, warpT float64) float64 {
	c := max(warpT, fp.bound)
	bytesPerCycle := d.arch.DRAMGBps * 1e9 / (d.clockMHz * 1e6)
	if b := fp.dramBytes / bytesPerCycle; b > c {
		c = b
	}
	if c < 1 {
		c = 1
	}
	return c
}

// footprint walks one or more concurrent kernel traces through everything
// that does not depend on the clock. Warps go to SMs round-robin by global
// CTA index across all the traces, as a multi-stream launch would, and to
// schedulers round-robin within the SM.
func (d *Device) footprint(kts []*trace.KernelTrace) *footprint {
	t := d.t
	arch := d.arch
	nMem := 0
	for _, kt := range kts {
		for wi := range kt.Warps {
			nMem += len(kt.Warps[wi].Mem)
		}
	}
	fp := &footprint{classes: make([]uint8, 0, nMem)}
	sms := make([]smLoad, arch.NumSMs)
	l2, _ := cachesim.New(d.l2cfg) // validated by NewDevice
	rows := make([]uint64, arch.DRAMChannels)
	for i := range rows {
		rows[i] = ^uint64(0)
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

			mi := 0
			for _, r := range wt.Recs {
				in := &code[r.PC]
				op := in.Op
				info := op.Info()
				lanes := bits.OnesCount32(r.Mask)
				st.laneSum += float64(lanes)
				st.issued++

				if info.IsMem {
					class := uint8(classOp)
					if lanes > 0 {
						class = d.memAccess(fp, st, in, kt.Access(wt.Mem[mi], r.Mask), l2, rows)
					}
					fp.classes = append(fp.classes, class)
					mi++
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
				fp.dynEnergyPJ += t.opEnergyPJ[op]*ops +
					t.regFilePJ*rfOperands*ops +
					t.ibufPJ + t.schedPJ + t.pipePJ +
					t.l1iPJ*t.l1iPerInstr

				// Hardware counters.
				c := &fp.counters
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

	// Per-SM throughput bounds and lane gating; fold the L1 statistics.
	c := &fp.counters
	for i := range sms {
		st := &sms[i]
		if !st.used {
			continue
		}
		fp.activeSMs++
		// Lanes power-gate when inactive, so the leaking lane count is
		// the time-weighted average of the active mask (Section 4.3).
		if st.issued > 0 {
			fp.poweredLanes += st.laneSum / st.issued
		}
		b := st.l1Trans / 4
		for s := range st.issue {
			b = max(b, st.issue[s])
			for _, slots := range st.fuSlots[s] {
				b = max(b, slots)
			}
		}
		fp.bound = max(fp.bound, b)
		if st.l1 != nil {
			s := st.l1.Stats()
			c.L1Accesses += s.Accesses
			c.L1Misses += s.Misses + s.SectorMisses
		}
	}
	l2s := l2.Stats()
	fp.bound = max(fp.bound, float64(l2s.Accesses)/float64(arch.L2Slices))

	c.L2Accesses = l2s.Accesses
	c.L2Misses = l2s.Misses + l2s.SectorMisses
	c.DramReads = l2s.Misses + l2s.SectorMisses
	c.DramWrites = l2s.Writebacks
	return fp
}

// memAccess resolves one warp-level memory instruction with active lanes
// through the memory hierarchy, charging energy, and returns its latency
// class.
func (d *Device) memAccess(fp *footprint, st *smLoad, in *isa.Instr, acc trace.Access,
	l2 *cachesim.Cache, rows []uint64) uint8 {

	t := d.t
	var buf [32]uint64
	switch in.Space {
	case isa.SpaceShared:
		passes := max(acc.BankConflicts(), 1)
		fp.dynEnergyPJ += t.sharedPJ * float64(passes)
		fp.counters.SharedAccesses += uint64(passes)
		return uint8(passes)

	case isa.SpaceConst:
		fp.dynEnergyPJ += t.constPJ
		fp.counters.ConstAccesses++
		return classConst

	case isa.SpaceTexture:
		n := len(acc.Blocks(&buf, 32))
		fp.dynEnergyPJ += t.texPJ * float64(n)
		fp.counters.TexAccesses += uint64(n)
		return classTex

	case isa.SpaceGlobal:
		if st.l1 == nil {
			st.l1, _ = cachesim.New(d.l1cfg) // validated by NewDevice
		}
		write := in.Op == isa.OpSTG
		atomic := in.Op == isa.OpATOMG
		var out uint8
		for _, sector := range acc.Blocks(&buf, 32) {
			st.l1Trans++
			if atomic {
				// Atomics resolve at the L2.
				res := l2.Access(sector, true)
				fp.dynEnergyPJ += 2*t.l2PJ + t.nocPJ
				if res.Hit {
					out |= outAtomL2Hit
				} else {
					out |= outAtomDRAM
					d.dramAccess(fp, sector, rows, false)
				}
				continue
			}
			res := st.l1.Access(sector, write)
			fp.dynEnergyPJ += t.l1PJ
			switch {
			case res.Hit:
				out |= outL1Hit
			case res.SectorFill:
				fp.dynEnergyPJ += t.sectorFillPJ + t.l2PJ + t.nocPJ
				if l2.Access(sector, false).Hit {
					out |= outFillL2Hit
				} else {
					out |= outFillDRAM
					d.dramAccess(fp, sector, rows, false)
				}
			default:
				// Line (sector) miss: goes to L2 over the NoC.
				fp.dynEnergyPJ += t.l2PJ + t.nocPJ
				l2res := l2.Access(sector, write)
				if l2res.Hit {
					out |= outMissL2Hit
				} else {
					out |= outMissDRAM
					d.dramAccess(fp, sector, rows, write)
				}
				if l2res.Writeback {
					fp.dynEnergyPJ += t.dramWrPJ + t.memCtrlPJ
					fp.dramBytes += 32
				}
			}
		}
		if write {
			// Stores do not stall the warp.
			return classOp
		}
		return classGlobal | out
	}
	return classOp
}

// dramAccess charges DRAM access energy with a per-channel open-row model.
func (d *Device) dramAccess(fp *footprint, sector uint64, rows []uint64, write bool) {
	t := d.t
	ch := (sector / 256) % uint64(len(rows))
	row := sector / t.dramRowBytes
	if rows[ch] != row {
		rows[ch] = row
		fp.dynEnergyPJ += t.dramActPJ
	}
	if write {
		fp.dynEnergyPJ += t.dramWrPJ + t.memCtrlPJ
	} else {
		fp.dynEnergyPJ += t.dramRdPJ + t.memCtrlPJ
	}
	fp.dramBytes += 32
}

// latencies are the exposed latencies at one clock.
type latencies struct {
	scale float64      // core clock over the base clock
	class [256]float64 // by latency class (classOp reads the opcode's)
}

// latencies evaluates every latency class at the device's clock. Each
// sector outcome keeps the expression the single-pass replay used, and a
// class's latency is the maximum over its outcomes at this clock: the L1
// hit latency does not scale, so below about 360 MHz on Volta it outlasts
// a scaled sector fill, and one base-clock latency per record, scaled,
// would be wrong.
func (d *Device) latencies() *latencies {
	t := d.t
	s := d.clockMHz / d.arch.BaseClockMHz
	lt := &latencies{scale: s}
	for p := 1; p <= 32; p++ {
		lt.class[p] = t.latShared + (float64(p)-1)*2
	}
	lt.class[classConst] = t.latConst
	lt.class[classTex] = t.latTex
	out := [numOutcomes]float64{
		t.latL1Hit,
		t.latSector * s,
		t.latSector*s + (t.latDRAM-t.latL2Hit)*s,
		t.latL2Hit * s,
		t.latDRAM * s,
		t.latL2Hit*s + 20,
		t.latL2Hit*s + 20 + t.latDRAM*s,
	}
	for m := 0; m < 1<<numOutcomes; m++ {
		lat := 0.0
		for b, l := range out {
			if m>>b&1 != 0 && l > lat {
				lat = l
			}
		}
		lt.class[classGlobal|m] = lat
	}
	return lt
}

// pcTiming is what warpTime reads of one instruction. An unused source
// reads slot zeroReg of the scoreboard, which stays 0, and an instruction
// that writes no register writes slot sinkReg, which nothing reads, so the
// walk needs no branch on either.
type pcTiming struct {
	lat  float64 // the opcode's latency at this clock; a NANOSLEEP's duration
	srcs [3]uint8
	dst  uint8
	mem  bool // has a latency class
}

const (
	zeroReg = isa.NumRegs
	sinkReg = isa.NumRegs + 1
)

// warpTime walks every warp's records with a register scoreboard, each
// issuing in program order once its sources are ready, and returns the
// latest completion of any record. Memory records read their latency
// from classes, in footprint order, through lt.
func (d *Device) warpTime(kts []*trace.KernelTrace, classes []uint8, lt *latencies) float64 {
	var pcs []pcTiming
	var warpT float64
	// Indexed by uint8, so no access needs a bounds check; a warp uses
	// only the slots below sinkReg+1.
	var wb [256]float64
	ci := 0
	for _, kt := range kts {
		pcs = pcs[:0]
		for i := range kt.Kernel.Code {
			in := &kt.Kernel.Code[i]
			info := in.Op.Info()
			p := pcTiming{lat: d.t.lat[in.Op], srcs: [3]uint8{zeroReg, zeroReg, zeroReg},
				dst: sinkReg, mem: info.IsMem}
			for s := 0; s < int(in.NSrc); s++ {
				p.srcs[s] = uint8(in.Srcs[s])
			}
			if info.WritesReg && !in.SemNop {
				p.dst = uint8(in.Dst)
			}
			if in.Op == isa.OpNANOSLEEP {
				p.lat = float64(in.Imm) * lt.scale
			}
			pcs = append(pcs, p)
		}
		for wi := range kt.Warps {
			clear(wb[:sinkReg+1])
			// start is never below 0, so the zero slot never raises it.
			tIssue := -1.0
			for _, r := range kt.Warps[wi].Recs {
				p := &pcs[r.PC]
				start := tIssue + 1
				if w := wb[p.srcs[0]]; w > start {
					start = w
				}
				if w := wb[p.srcs[1]]; w > start {
					start = w
				}
				if w := wb[p.srcs[2]]; w > start {
					start = w
				}
				lat := p.lat
				if p.mem {
					if c := classes[ci]; c != classOp {
						lat = lt.class[c]
					}
					ci++
				}
				end := start + lat
				wb[p.dst] = end
				tIssue = start
				if end > warpT {
					warpT = end
				}
			}
		}
	}
	return warpT
}

// passes returns the functional-unit occupancy (in issue slots) of one warp
// instruction given its active mask, implementing half-warp execution on
// 16-lane units, quarter-warp groups on 8-lane FP64 and LD/ST units, and
// 4-lane groups on the SFUs.
func passes(mask uint32, unit isa.Unit) float64 {
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
