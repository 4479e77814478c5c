package isa

import "fmt"

// Builder assembles kernels programmatically. All errors are deferred to
// Build so kernel generators can be written as straight-line code.
//
//	b := isa.NewKernel("saxpy").Grid(80).Block(256)
//	b.MovI(1, 0)
//	b.Label("loop")
//	...
//	k, err := b.Build()
type Builder struct {
	k      *Kernel
	err    error
	labels map[string]int
	fixups []fixup
}

type fixup struct {
	pc    int
	label string
}

// NewKernel starts a PTX-level kernel with a 1x1 launch geometry.
func NewKernel(name string) *Builder {
	return &Builder{
		k: &Kernel{
			Name:  name,
			Level: PTX,
			Grid:  Dim3{X: 1},
			Block: Dim3{X: 32},
		},
		labels: make(map[string]int),
	}
}

// Grid sets the number of CTAs in the grid (x dimension).
func (b *Builder) Grid(x int) *Builder { b.k.Grid = Dim3{X: x}; return b }

// Block sets the number of threads per CTA (x dimension).
func (b *Builder) Block(x int) *Builder { b.k.Block = Dim3{X: x}; return b }

// Shared sets the static shared-memory allocation per CTA in bytes.
func (b *Builder) Shared(bytes int) *Builder { b.k.SharedBytes = bytes; return b }

// Params appends kernel parameters, readable with LDC at const offsets
// 0, 8, 16, ...
func (b *Builder) Params(vals ...uint64) *Builder {
	b.k.Params = append(b.k.Params, vals...)
	return b
}

// Label binds a name to the next emitted instruction.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.fail("duplicate label %q", name)
		return b
	}
	b.labels[name] = len(b.k.Code)
	return b
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("isa: kernel %s: "+format, append([]any{b.k.Name}, args...)...)
	}
}

func (b *Builder) emit(in Instr) *Instr {
	// Emitters never set a guard; instructions default to always-execute
	// and callers attach guards through the returned pointer.
	in.Pred = PT
	b.k.Code = append(b.k.Code, in)
	return &b.k.Code[len(b.k.Code)-1]
}

// Guard sets the guard predicate of an instruction; Not guards on the
// predicate being false. Both return the instruction for chaining.
func (in *Instr) Guard(p PredReg) *Instr    { in.Pred = p; in.PredNeg = false; return in }
func (in *Instr) GuardNot(p PredReg) *Instr { in.Pred = p; in.PredNeg = true; return in }

// Op1 emits a one-source-register instruction (MOV, MUFU.*, unary PTX ops).
func (b *Builder) Op1(op Op, d, s Reg) *Instr {
	return b.emit(Instr{Op: op, Dst: d, Srcs: [3]Reg{s}, NSrc: 1})
}

// Op2 emits a two-source instruction (IADD, FMUL, ...).
func (b *Builder) Op2(op Op, d, s0, s1 Reg) *Instr {
	return b.emit(Instr{Op: op, Dst: d, Srcs: [3]Reg{s0, s1}, NSrc: 2})
}

// Op2i emits a register+immediate instruction (IADD R1, R2, #5).
func (b *Builder) Op2i(op Op, d, s0 Reg, imm int64) *Instr {
	return b.emit(Instr{Op: op, Dst: d, Srcs: [3]Reg{s0}, NSrc: 1, Imm: imm, HasImm: true})
}

// Op3 emits a three-source instruction (IMAD, FFMA, HMMA, ...).
func (b *Builder) Op3(op Op, d, s0, s1, s2 Reg) *Instr {
	return b.emit(Instr{Op: op, Dst: d, Srcs: [3]Reg{s0, s1, s2}, NSrc: 3})
}

// MovI emits an immediate move.
func (b *Builder) MovI(d Reg, imm int64) *Instr {
	return b.emit(Instr{Op: OpMOVI, Dst: d, Imm: imm, HasImm: true})
}

// S2R reads a special register.
func (b *Builder) S2R(d Reg, sr SReg) *Instr {
	return b.emit(Instr{Op: OpS2R, Dst: d, SReg: sr})
}

// SetP emits a set-predicate comparison; op is OpISETP or OpFSETP, p the
// destination predicate.
func (b *Builder) SetP(op Op, p PredReg, cmp CmpOp, s0, s1 Reg) *Instr {
	return b.emit(Instr{Op: op, Dst: Reg(p), Srcs: [3]Reg{s0, s1}, NSrc: 2, Cmp: cmp})
}

// SetPi emits a set-predicate comparison against an immediate.
func (b *Builder) SetPi(op Op, p PredReg, cmp CmpOp, s0 Reg, imm int64) *Instr {
	return b.emit(Instr{Op: op, Dst: Reg(p), Srcs: [3]Reg{s0}, NSrc: 1, Cmp: cmp, Imm: imm, HasImm: true})
}

func spaceOf(op Op) MemSpace {
	switch op {
	case OpLDG, OpSTG, OpATOMG:
		return SpaceGlobal
	case OpLDS, OpSTS:
		return SpaceShared
	case OpLDC:
		return SpaceConst
	case OpTEX:
		return SpaceTexture
	}
	return SpaceNone
}

// Ld emits a load: d <- space[addr+off]. op selects the space (OpLDG,
// OpLDS, OpLDC, OpTEX).
func (b *Builder) Ld(op Op, d, addr Reg, off int64) *Instr {
	if !op.Info().IsMem || op.Info().IsStore {
		b.fail("Ld with non-load opcode %v", op)
	}
	return b.emit(Instr{Op: op, Dst: d, Srcs: [3]Reg{addr}, NSrc: 1, Imm: off, HasImm: true, Space: spaceOf(op)})
}

// St emits a store: space[addr+off] <- val. op is OpSTG or OpSTS.
func (b *Builder) St(op Op, addr, val Reg, off int64) *Instr {
	if !op.Info().IsStore || op == OpATOMG {
		b.fail("St with non-store opcode %v", op)
	}
	return b.emit(Instr{Op: op, Srcs: [3]Reg{addr, val}, NSrc: 2, Imm: off, HasImm: true, Space: spaceOf(op)})
}

// AtomAdd emits a global atomic add returning the old value in d.
func (b *Builder) AtomAdd(d, addr, val Reg, off int64) *Instr {
	return b.emit(Instr{Op: OpATOMG, Dst: d, Srcs: [3]Reg{addr, val}, NSrc: 2, Imm: off, HasImm: true, Space: SpaceGlobal})
}

// Bra emits a branch to a label (possibly not yet defined).
func (b *Builder) Bra(label string) *Instr {
	in := b.emit(Instr{Op: OpBRA})
	b.fixups = append(b.fixups, fixup{pc: len(b.k.Code) - 1, label: label})
	return in
}

// Bar emits a CTA-wide barrier.
func (b *Builder) Bar() *Instr { return b.emit(Instr{Op: OpBAR}) }

// Exit emits the kernel terminator.
func (b *Builder) Exit() *Instr { return b.emit(Instr{Op: OpEXIT}) }

// Nanosleep emits a sleep of the given core cycles.
func (b *Builder) Nanosleep(cycles int64) *Instr {
	return b.emit(Instr{Op: OpNANOSLEEP, Imm: cycles, HasImm: true})
}

// Nop emits a NOP.
func (b *Builder) Nop() *Instr { return b.emit(Instr{Op: OpNOP}) }

// Build resolves labels and validates the kernel.
func (b *Builder) Build() (*Kernel, error) {
	if b.err != nil {
		return nil, b.err
	}
	for _, f := range b.fixups {
		target, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("isa: kernel %s: undefined label %q", b.k.Name, f.label)
		}
		b.k.Code[f.pc].Target = target
	}
	if err := b.k.Validate(); err != nil {
		return nil, err
	}
	return b.k, nil
}

// MustBuild is Build for statically-known-correct kernels.
func (b *Builder) MustBuild() *Kernel {
	k, err := b.Build()
	if err != nil {
		panic(err)
	}
	return k
}
