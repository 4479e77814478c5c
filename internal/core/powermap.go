package core

import "accelwattch/internal/isa"

// The power map of Figure 1-(5): every ISA opcode (both SASS and PTX
// levels) maps to the Table 1 dynamic power component its execution
// activates. Front-end components (instruction buffer, icache, scheduler,
// pipeline, register file) are charged per instruction by the activity
// builders rather than through this map.
var opComponent = [isa.NumOps]Component{}

func init() {
	set := func(c Component, ops ...isa.Op) {
		for _, op := range ops {
			opComponent[op] = c
		}
	}
	// Integer add-class -> ALU.
	set(CompALU, isa.OpNOP, isa.OpMOV, isa.OpMOVI, isa.OpS2R, isa.OpIADD,
		isa.OpIADD3, isa.OpISETP, isa.OpSHL, isa.OpSHR, isa.OpAND, isa.OpOR,
		isa.OpXOR, isa.OpIMIN, isa.OpIMAX, isa.OpIABSDIFF, isa.OpADDS64,
		isa.OpBRA, isa.OpEXIT, isa.OpBAR, isa.OpNANOSLEEP)
	set(CompINTMUL, isa.OpIMUL, isa.OpIMAD, isa.OpDIVS32, isa.OpREMS32)
	set(CompFPU, isa.OpFADD, isa.OpFSETP, isa.OpFMIN, isa.OpFMAX)
	set(CompFPMUL, isa.OpFMUL, isa.OpFFMA, isa.OpDIVF32)
	set(CompDPU, isa.OpDADD)
	set(CompDPMUL, isa.OpDMUL, isa.OpDFMA)
	set(CompSQRT, isa.OpMUFURCP, isa.OpMUFUSQRT, isa.OpSQRTF32, isa.OpRSQRTF32)
	set(CompLOG, isa.OpMUFULG2, isa.OpLOGF32)
	set(CompSINCOS, isa.OpMUFUSIN, isa.OpMUFUCOS, isa.OpRRO, isa.OpSINF32, isa.OpCOSF32)
	set(CompEXP, isa.OpMUFUEX2, isa.OpEXPF32)
	set(CompTENSOR, isa.OpHMMA)
	set(CompTEX, isa.OpTEX)
	// Memory instructions: the lane-level execution cost is carried by
	// the cache/shared/const component counted per transaction by the
	// activity builder; the instruction itself still exercises the ALU
	// datapath for address generation.
	set(CompALU, isa.OpLDG, isa.OpSTG, isa.OpLDS, isa.OpSTS, isa.OpLDC, isa.OpATOMG)
}

// OpComponent returns the Table 1 component an opcode's execution activates.
func OpComponent(op isa.Op) Component {
	if int(op) < isa.NumOps {
		return opComponent[op]
	}
	return CompALU
}

// ICacheFetchFraction is the fraction of warp instructions charged as L1
// instruction-cache fetches (instructions are fetched in groups; the L0
// instruction buffer absorbs the rest). Mirrors GPUWattch's fetch-group
// accounting.
const ICacheFetchFraction = 0.25

// MixInputFromOpCounts builds the mix-classification census from warp-level
// opcode counts indexed by opcode, a cycle count, and the active SM count.
// The sums are of integer counts, so they do not depend on the order the
// opcodes are visited in.
func MixInputFromOpCounts(opCounts [isa.NumOps]int64, cycles, activeSMs float64) MixInput {
	var in MixInput
	for i, n := range opCounts {
		if n == 0 {
			continue
		}
		op, fn := isa.Op(i), float64(n)
		in.Total += fn
		switch OpComponent(op) {
		case CompALU:
			switch op {
			case isa.OpNANOSLEEP:
				in.Light += fn
			case isa.OpBRA, isa.OpEXIT, isa.OpBAR:
				// Control flow does not count towards compute mix.
			default:
				if !op.Info().IsMem {
					in.IntAdd += fn
				}
			}
		case CompINTMUL:
			in.IntMul += fn
		case CompFPU, CompFPMUL:
			in.FP32 += fn
		case CompDPU, CompDPMUL:
			in.FP64 += fn
		case CompSQRT, CompLOG, CompSINCOS, CompEXP:
			in.SFU += fn
		case CompTENSOR:
			in.Tensor += fn
		case CompTEX:
			in.Tex += fn
		}
	}
	if cycles > 0 && activeSMs > 0 {
		in.IPC = in.Total / cycles / activeSMs
	}
	return in
}
