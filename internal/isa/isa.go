// Package isa defines the two instruction sets used throughout the
// framework: a virtual ISA modelled after NVIDIA PTX (the level at which all
// kernels in this repository are authored) and a machine ISA modelled after
// NVIDIA SASS (the level the synthetic silicon executes and the level at
// which traces are collected, mirroring NVBit).
//
// The two levels matter because the paper's PTX SIM and SASS SIM variants
// differ precisely in which instruction stream drives the power model: PTX
// instructions do not map 1:1 to SASS instructions, and Lower implements a
// compiler whose expansions reproduce that mismatch.
package isa

import "fmt"

// Level distinguishes the virtual (PTX-like) ISA from the machine
// (SASS-like) ISA.
type Level uint8

const (
	// PTX is the virtual ISA level at which kernels are authored.
	PTX Level = iota
	// SASS is the machine ISA level produced by Lower and executed by the
	// synthetic silicon.
	SASS
)

func (l Level) String() string {
	switch l {
	case PTX:
		return "PTX"
	case SASS:
		return "SASS"
	default:
		return fmt.Sprintf("Level(%d)", uint8(l))
	}
}

// Reg names a 32/64-bit general-purpose register in the per-thread register
// file. The framework models NumRegs architectural registers per thread.
type Reg uint8

// NumRegs is the size of the per-thread register file visible to kernels.
const NumRegs = 64

// PredReg names a per-thread predicate register. Predicate PT is the
// constant-true predicate used for unguarded instructions.
type PredReg uint8

// NumPreds is the number of predicate registers per thread; PT is the
// always-true pseudo register.
const (
	NumPreds         = 7
	PT       PredReg = 7
)

// MemSpace identifies the memory space addressed by a load or store.
type MemSpace uint8

const (
	// SpaceNone marks non-memory instructions.
	SpaceNone MemSpace = iota
	// SpaceGlobal is device (DRAM-backed) memory, cached in L1/L2.
	SpaceGlobal
	// SpaceShared is per-CTA scratchpad memory.
	SpaceShared
	// SpaceConst is the constant memory space, cached in the constant
	// cache; kernel parameters live at its base.
	SpaceConst
	// SpaceTexture is texture memory, fetched through the texture unit.
	SpaceTexture
)

func (s MemSpace) String() string {
	switch s {
	case SpaceNone:
		return "none"
	case SpaceGlobal:
		return "global"
	case SpaceShared:
		return "shared"
	case SpaceConst:
		return "const"
	case SpaceTexture:
		return "texture"
	default:
		return fmt.Sprintf("MemSpace(%d)", uint8(s))
	}
}

// SReg enumerates the special registers readable with OpS2R, mirroring the
// PTX %tid/%ctaid family.
type SReg uint8

const (
	SRegLaneID  SReg = iota // lane within the warp [0,32)
	SRegTIDX                // thread index within the CTA (x)
	SRegCTAIDX              // CTA index within the grid (x)
	SRegNTIDX               // CTA size (x)
	SRegNCTAIDX             // grid size in CTAs (x)
	SRegWarpID              // warp index within the CTA
	SRegGridTID             // flattened global thread id
	numSRegs
)

var sregNames = [...]string{
	SRegLaneID:  "laneid",
	SRegTIDX:    "tid.x",
	SRegCTAIDX:  "ctaid.x",
	SRegNTIDX:   "ntid.x",
	SRegNCTAIDX: "nctaid.x",
	SRegWarpID:  "warpid",
	SRegGridTID: "gtid",
}

func (s SReg) String() string {
	if int(s) < len(sregNames) {
		return sregNames[s]
	}
	return fmt.Sprintf("SReg(%d)", uint8(s))
}

// CmpOp is the comparison performed by set-predicate instructions.
type CmpOp uint8

const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

var cmpNames = [...]string{"eq", "ne", "lt", "le", "gt", "ge"}

func (c CmpOp) String() string {
	if int(c) < len(cmpNames) {
		return cmpNames[c]
	}
	return fmt.Sprintf("CmpOp(%d)", uint8(c))
}

// Instr is one static instruction. The same representation serves both ISA
// levels; Op determines which fields are meaningful.
type Instr struct {
	Op     Op
	Dst    Reg    // destination register (or predicate index for SETP ops)
	Srcs   [3]Reg // source registers
	NSrc   uint8  // number of live source registers
	Imm    int64  // immediate operand (offsets, constants, sleep cycles)
	HasImm bool   // whether Imm participates as an operand

	Pred    PredReg // guard predicate; PT means always execute
	PredNeg bool    // execute when the predicate is false

	Cmp    CmpOp    // comparison for SETP-class ops
	Space  MemSpace // memory space for LD/ST/TEX/ATOM
	Target int      // branch target, as an instruction index
	SReg   SReg     // source for S2R

	// SemNop marks an instruction produced by Lower as part of a
	// multi-instruction expansion whose architectural result is written by
	// the final instruction of the sequence. SemNop instructions occupy
	// their functional unit (and therefore consume time and power) but do
	// not change architectural state, keeping PTX and SASS kernels
	// functionally identical by construction.
	SemNop bool

	// SemOp, when non-zero on the final instruction of a Lower expansion,
	// is the original PTX opcode whose semantics the instruction carries.
	// Timing and power models see Op; the functional executor evaluates
	// SemOp. This keeps lowered kernels bit-identical to their PTX source
	// without implementing, e.g., Newton-Raphson division at SASS level.
	SemOp Op
}

// Guarded reports whether the instruction is guarded by a real predicate.
func (in *Instr) Guarded() bool { return in.Pred != PT }

// Dim3 is a CUDA-style 3D extent; this framework exercises only the x
// dimension but keeps the structure for fidelity.
type Dim3 struct{ X, Y, Z int }

// Count returns the number of elements covered by the extent.
func (d Dim3) Count() int {
	x, y, z := d.X, d.Y, d.Z
	if x == 0 {
		x = 1
	}
	if y == 0 {
		y = 1
	}
	if z == 0 {
		z = 1
	}
	return x * y * z
}

// Kernel is a complete compiled kernel: code plus launch geometry.
type Kernel struct {
	Name  string
	Level Level
	Code  []Instr

	Grid  Dim3 // CTAs in the grid
	Block Dim3 // threads per CTA

	SharedBytes int      // static shared-memory allocation per CTA
	Params      []uint64 // kernel parameters, visible at the const-space base
}

// Warps returns the number of warps per CTA, rounding up.
func (k *Kernel) Warps() int { return (k.Block.Count() + 31) / 32 }

// TotalWarps returns the number of warps across the whole grid.
func (k *Kernel) TotalWarps() int { return k.Warps() * k.Grid.Count() }

// Clone returns a deep copy of the kernel; callers may mutate the copy's
// code or launch geometry without affecting the original.
func (k *Kernel) Clone() *Kernel {
	nk := *k
	nk.Code = append([]Instr(nil), k.Code...)
	nk.Params = append([]uint64(nil), k.Params...)
	return &nk
}

// MaxSleepCycles bounds a NANOSLEEP's duration. The timing models turn
// each sleep into cycles and 500-cycle power windows, so an unbounded one
// would size a replay's window slice.
const MaxSleepCycles = 1 << 20

// Validate checks structural invariants: every register field and
// predicate index in range, branch targets inside the code, bounded
// sleeps, a terminating EXIT, and that the ISA level of every opcode
// matches the kernel's level.
func (k *Kernel) Validate() error {
	if k.Name == "" {
		return fmt.Errorf("isa: kernel has no name")
	}
	if len(k.Code) == 0 {
		return fmt.Errorf("isa: kernel %s has no code", k.Name)
	}
	if k.Grid.Count() <= 0 || k.Block.Count() <= 0 {
		return fmt.Errorf("isa: kernel %s has an empty launch geometry", k.Name)
	}
	if k.Block.Count() > 1024 {
		return fmt.Errorf("isa: kernel %s exceeds 1024 threads per CTA", k.Name)
	}
	sawExit := false
	for pc, in := range k.Code {
		info := in.Op.Info()
		if info.Name == "" {
			return fmt.Errorf("isa: kernel %s: pc %d: unknown opcode %d", k.Name, pc, in.Op)
		}
		if k.Level == SASS && info.PTXOnly {
			return fmt.Errorf("isa: kernel %s: pc %d: %s is a PTX-level op in a SASS kernel", k.Name, pc, info.Name)
		}
		// The executor resolves every register field to a row of the
		// register file, used by the opcode or not.
		if int(in.Dst) >= NumRegs {
			return fmt.Errorf("isa: kernel %s: pc %d: destination register R%d out of range", k.Name, pc, in.Dst)
		}
		if info.WritesPred && in.Dst >= NumPreds {
			return fmt.Errorf("isa: kernel %s: pc %d: predicate destination P%d out of range", k.Name, pc, in.Dst)
		}
		if int(in.NSrc) > len(in.Srcs) {
			return fmt.Errorf("isa: kernel %s: pc %d: %d source operands, at most %d", k.Name, pc, in.NSrc, len(in.Srcs))
		}
		for _, r := range in.Srcs {
			if int(r) >= NumRegs {
				return fmt.Errorf("isa: kernel %s: pc %d: source register R%d out of range", k.Name, pc, r)
			}
		}
		if in.Pred != PT && in.Pred >= NumPreds {
			return fmt.Errorf("isa: kernel %s: pc %d: guard predicate P%d out of range", k.Name, pc, in.Pred)
		}
		if in.Op == OpBRA {
			if in.Target < 0 || in.Target >= len(k.Code) {
				return fmt.Errorf("isa: kernel %s: pc %d: branch target %d out of range", k.Name, pc, in.Target)
			}
		}
		if in.Op == OpNANOSLEEP && (in.Imm < 0 || in.Imm > MaxSleepCycles) {
			return fmt.Errorf("isa: kernel %s: pc %d: NANOSLEEP %d outside [0, %d] cycles", k.Name, pc, in.Imm, MaxSleepCycles)
		}
		if in.Op == OpEXIT {
			sawExit = true
		}
	}
	if !sawExit {
		return fmt.Errorf("isa: kernel %s has no EXIT", k.Name)
	}
	if last := k.Code[len(k.Code)-1]; last.Op != OpEXIT {
		return fmt.Errorf("isa: kernel %s must end with EXIT", k.Name)
	}
	return nil
}
