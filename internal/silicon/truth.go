// Package silicon implements the synthetic GPU devices that stand in for
// the paper's measurement targets (Volta Quadro GV100, Pascal TITAN X,
// Turing RTX 2060S). A Device replays SASS traces on a golden timing and
// power model with *hidden* parameters, and exposes only what real hardware
// exposes: an NVML-like noisy power meter, clock controls, a temperature,
// and an Nsight-like performance-counter profile (with the same counter
// gaps as real Volta: no L1i, register-file, or DRAM-precharge counters).
//
// The golden model embeds the physical behaviours the paper infers —
// near-linear V(f) making total power cubic-minus-quadratic in f, power
// gating of chip-global/SM-wide/lane-level components, half-warp execution
// that produces the divergence sawtooth, and temperature-dependent leakage —
// so the AccelWattch tuning pipeline must rediscover them from measurements
// alone, exactly as on real silicon.
package silicon

import (
	"fmt"

	"accelwattch/internal/isa"
)

// truth holds the hidden ground-truth power parameters of one device. It is
// unexported on purpose: the power model under test must never read it.
// No accessor exports it, to tests either: they observe a device the way
// the tuning pipeline does, through its measurements (Run, Profile,
// MeasureIdle).
type truth struct {
	// Per-lane dynamic energy per executed operation, picojoules, at the
	// base voltage/frequency point.
	opEnergyPJ [isa.NumOps]float64

	// Per-warp-instruction front-end energies (pJ): instruction buffer,
	// L1 instruction cache (charged per fetch group), scheduler and
	// dispatch, and SM pipeline.
	ibufPJ      float64
	l1iPJ       float64
	l1iPerInstr float64 // fraction of instructions that touch L1i
	schedPJ     float64
	pipePJ      float64

	// Register-file energy per operand per lane (pJ).
	regFilePJ float64

	// Memory-system energies per transaction (pJ).
	l1PJ         float64
	sharedPJ     float64
	constPJ      float64
	texPJ        float64
	l2PJ         float64
	nocPJ        float64
	dramRdPJ     float64
	dramWrPJ     float64
	dramActPJ    float64 // row activate+precharge on a row miss
	memCtrlPJ    float64
	sectorFillPJ float64 // extra energy for a sector fill on a resident line

	// Static/constant power (watts at base voltage, 65C).
	constW      float64 // board fans, peripheral circuitry (P_const)
	chipGlobalW float64 // L2/NoC/DRAM-interface leakage once any SM is on
	smStaticW   float64 // SM-wide leakage once the SM's first lane is on
	laneStaticW float64 // per powered lane leakage
	idleSMW     float64 // leakage of a powered-down (idle) SM

	// Leakage grows exponentially with temperature around the 65C
	// measurement point (Section 4.1).
	tempCoeff float64 // per degree C

	// Timing parameters (cycles).
	lat          [isa.NumOps]float64
	latL1Hit     float64
	latSector    float64
	latL2Hit     float64
	latDRAM      float64
	latRowMiss   float64
	latShared    float64
	latConst     float64
	latTex       float64
	dramRowBytes uint64
}

// baseOpEnergy returns the Volta ground-truth per-lane energies. Pascal and
// Turing derive from it with per-component implementation deltas.
func baseOpEnergy() [isa.NumOps]float64 {
	var e [isa.NumOps]float64
	set := func(v float64, ops ...isa.Op) {
		for _, op := range ops {
			e[op] = v
		}
	}
	set(0.9, isa.OpNOP, isa.OpMOV, isa.OpMOVI, isa.OpS2R, isa.OpIADD, isa.OpSHL,
		isa.OpSHR, isa.OpAND, isa.OpOR, isa.OpXOR, isa.OpIMIN, isa.OpIMAX,
		isa.OpISETP, isa.OpIABSDIFF)
	set(1.1, isa.OpIADD3)
	set(1.8, isa.OpIMUL)
	set(2.1, isa.OpIMAD)
	set(1.1, isa.OpFADD, isa.OpFSETP, isa.OpFMIN, isa.OpFMAX)
	set(1.4, isa.OpFMUL)
	set(1.8, isa.OpFFMA)
	set(3.0, isa.OpDADD)
	set(5.2, isa.OpDMUL)
	set(6.3, isa.OpDFMA)
	set(4.2, isa.OpMUFURCP, isa.OpMUFUSQRT)
	set(3.9, isa.OpMUFULG2)
	set(3.8, isa.OpMUFUEX2)
	set(4.0, isa.OpMUFUSIN, isa.OpMUFUCOS)
	set(1.3, isa.OpRRO)
	set(7.5, isa.OpHMMA)
	set(2.8, isa.OpTEX)
	set(1.3, isa.OpLDG, isa.OpSTG, isa.OpATOMG)
	set(1.1, isa.OpLDS, isa.OpSTS)
	set(1.0, isa.OpLDC)
	set(0.5, isa.OpBRA, isa.OpEXIT, isa.OpBAR)
	set(0.05, isa.OpNANOSLEEP)
	return e
}

func baseLatency() [isa.NumOps]float64 {
	var l [isa.NumOps]float64
	set := func(v float64, ops ...isa.Op) {
		for _, op := range ops {
			l[op] = v
		}
	}
	for op := isa.Op(1); int(op) < isa.NumOps; op++ {
		l[op] = 4 // default ALU-class latency on Volta
	}
	set(5, isa.OpIMUL, isa.OpIMAD)
	set(8, isa.OpDADD, isa.OpDMUL, isa.OpDFMA)
	set(14, isa.OpMUFURCP, isa.OpMUFUSQRT, isa.OpMUFULG2, isa.OpMUFUEX2,
		isa.OpMUFUSIN, isa.OpMUFUCOS)
	set(6, isa.OpRRO)
	set(18, isa.OpHMMA)
	set(1, isa.OpBRA, isa.OpEXIT, isa.OpBAR, isa.OpNOP, isa.OpNANOSLEEP)
	return l
}

// voltaTruth is tuned so that the shapes of the paper's Volta measurements
// hold: constant power near 32.5 W, the first SM drawing ~47x a later SM,
// the first lane ~31x a later lane, heavy mixed kernels exceeding 200 W, and
// NANOSLEEP-class workloads sitting barely above constant power.
func voltaTruth() *truth {
	return &truth{
		opEnergyPJ:  baseOpEnergy(),
		ibufPJ:      8,
		l1iPJ:       16,
		l1iPerInstr: 0.25,
		schedPJ:     12,
		pipePJ:      16,
		regFilePJ:   1.7,

		l1PJ:         60,
		sharedPJ:     45,
		constPJ:      20,
		texPJ:        70,
		l2PJ:         150,
		nocPJ:        60,
		dramRdPJ:     500,
		dramWrPJ:     550,
		dramActPJ:    400,
		memCtrlPJ:    100,
		sectorFillPJ: 90,

		constW:      32.5,
		chipGlobalW: 5.5,
		smStaticW:   0.25,
		laneStaticW: 0.008,
		idleSMW:     0.03,
		tempCoeff:   0.016,

		lat:          baseLatency(),
		latL1Hit:     28,
		latSector:    110,
		latL2Hit:     210,
		latDRAM:      480,
		latRowMiss:   70,
		latShared:    24,
		latConst:     10,
		latTex:       86,
		dramRowBytes: 4096,
	}
}

// scaleTruth derives a new device's truth from Volta's with a node factor
// and per-component implementation deltas, mirroring how Pascal and Turing
// differ from Volta in ways the Volta-tuned model cannot know.
func scaleTruth(base *truth, dynScale, staticScale float64, deltas map[isa.Unit]float64) *truth {
	t := *base
	for op := isa.Op(1); int(op) < isa.NumOps; op++ {
		d := deltas[op.Info().Unit]
		t.opEnergyPJ[op] = base.opEnergyPJ[op] * dynScale * (1 + d)
	}
	t.ibufPJ *= dynScale
	t.l1iPJ *= dynScale
	t.schedPJ *= dynScale
	t.pipePJ *= dynScale
	t.regFilePJ *= dynScale
	t.l1PJ *= dynScale
	t.sharedPJ *= dynScale
	t.constPJ *= dynScale
	t.texPJ *= dynScale
	t.l2PJ *= dynScale
	t.nocPJ *= dynScale
	t.dramRdPJ *= dynScale
	t.dramWrPJ *= dynScale
	t.dramActPJ *= dynScale
	t.memCtrlPJ *= dynScale
	t.sectorFillPJ *= dynScale
	t.chipGlobalW *= staticScale
	t.smStaticW *= staticScale
	t.laneStaticW *= staticScale
	t.idleSMW *= staticScale
	return &t
}

// pascalTruth: 16 nm node (higher switching energy), larger effective cores,
// different FU implementations, slightly lower leakage density per SM but
// fewer SMs.
func pascalTruth() *truth {
	t := scaleTruth(voltaTruth(), 1.18*1.06, 1.10, map[isa.Unit]float64{
		isa.UnitALU: 0.05, isa.UnitFPU: -0.05, isa.UnitDPU: 0.10,
		isa.UnitSFU: 0.08, isa.UnitTex: -0.07, isa.UnitMem: 0.05,
	})
	t.constW = 31.0
	t.chipGlobalW = 5.0
	t.smStaticW = 0.42
	t.laneStaticW = 0.013
	t.idleSMW = 0.038
	return t
}

// turingTruth: 12 nm like Volta but a consumer board with beefier fans and
// peripheral circuitry (the paper models Turing constant power at 1.7x
// Volta's), fewer but similar SMs.
func turingTruth() *truth {
	t := scaleTruth(voltaTruth(), 1.06, 0.95, map[isa.Unit]float64{
		isa.UnitALU: -0.04, isa.UnitFPU: 0.07, isa.UnitDPU: 0.22,
		isa.UnitSFU: -0.06, isa.UnitTensor: 0.10, isa.UnitMem: -0.05,
	})
	t.constW = 32.5 * 1.68
	t.chipGlobalW = 4.8
	t.smStaticW = 0.38
	t.laneStaticW = 0.012
	t.idleSMW = 0.04
	return t
}

func truthFor(archName string) (*truth, error) {
	switch archName {
	case "volta-gv100":
		return voltaTruth(), nil
	case "pascal-titanx":
		return pascalTruth(), nil
	case "turing-rtx2060s":
		return turingTruth(), nil
	}
	return nil, fmt.Errorf("silicon: no ground-truth model for architecture %q", archName)
}
