package emu

import (
	"errors"
	"fmt"
	"math"

	"accelwattch/internal/isa"
	"accelwattch/internal/trace"
)

// MaxDynInstrsPerWarp bounds runaway kernels; exceeding it is reported as
// an error rather than hanging the caller.
const MaxDynInstrsPerWarp = 4 << 20

// The trace budget bounds one kernel launch's trace: its warp records and
// the lane addresses it stores explicitly (affine accesses store none).
// Both sit 4.6x above the largest Full-scale trace of the framework's
// suites (3,645,440 records and 7,299,040 listed addresses; DESIGN §17),
// so only a runaway launch reaches them.
const (
	MaxTraceRecords = 1 << 24
	MaxTraceAddrs   = 1 << 25
)

// ErrTraceBudget marks a kernel whose trace would exceed MaxTraceRecords
// records or MaxTraceAddrs explicit lane addresses. Run returns it wrapped;
// match with errors.Is.
var ErrTraceBudget = errors.New("emu: trace budget exceeded")

// ErrUnhandledOpcode marks a kernel that reached an opcode the emulator has
// no semantics for. It surfaces through Run as a wrapped error (match with
// errors.Is) so callers can distinguish an emulator gap from a bad kernel.
var ErrUnhandledOpcode = errors.New("emu: unhandled opcode")

// UnhandledOpcodeError reports which opcode, in which kernel, the emulator
// could not execute.
type UnhandledOpcodeError struct {
	Kernel string
	Op     isa.Op
}

func (e *UnhandledOpcodeError) Error() string {
	return fmt.Sprintf("emu: kernel %s: unhandled opcode %s", e.Kernel, e.Op.Info().Name)
}

// Unwrap lets errors.Is(err, ErrUnhandledOpcode) match.
func (e *UnhandledOpcodeError) Unwrap() error { return ErrUnhandledOpcode }

// Run executes a kernel functionally and returns its dynamic trace. The
// kernel may be at either ISA level; the trace is tagged with the level it
// executed at. Memory is mutated in place (kernels produce results). A
// launch whose trace would outgrow the trace budget fails with
// ErrTraceBudget.
func Run(k *isa.Kernel, mem *Memory) (*trace.KernelTrace, error) {
	if err := k.Validate(); err != nil {
		return nil, fmt.Errorf("emu: %w", err)
	}
	if mem == nil {
		mem = NewMemory()
	}
	// Every warp records at least one instruction, so a grid with more
	// warps than the record budget fails before any of it runs.
	nCTAs, nWarps := k.Grid.Count(), k.Warps()
	if nCTAs > MaxTraceRecords/nWarps {
		return nil, fmt.Errorf("%w: kernel %s launches %d CTAs of %d warps, more than %d records",
			ErrTraceBudget, k.Name, nCTAs, nWarps, MaxTraceRecords)
	}
	l := &kernelRun{k: k, mem: mem, shared: make(map[uint64]uint64)}
	// One warp state per warp slot, reused by every CTA.
	ws := make([]*warpState, nWarps)
	for w := range ws {
		ws[w] = &warpState{l: l, warp: w, launch: laneMask(k.Block.Count() - w*32)}
	}
	kt := &trace.KernelTrace{Kernel: k, Warps: make([]trace.WarpTrace, 0, nCTAs*nWarps)}
	for cta := 0; cta < nCTAs; cta++ {
		if err := l.runCTA(ws, cta); err != nil {
			return nil, err
		}
		for _, w := range ws {
			kt.Warps = append(kt.Warps, w.collect(kt))
		}
	}
	// Drop the arena's append slack; the trace may live for a session.
	kt.Addrs = append(make([]uint64, 0, len(kt.Addrs)), kt.Addrs...)
	return kt, nil
}

// kernelRun is what the warps of one kernel launch share.
type kernelRun struct {
	k       *isa.Kernel
	mem     *Memory
	shared  map[uint64]uint64 // the running CTA's shared memory
	records int               // records traced so far
	addrs   int               // explicit lane addresses traced so far
}

// laneMask returns the launch mask of a warp with n threads (clamped to 32).
func laneMask(n int) uint32 {
	if n >= 32 {
		return ^uint32(0)
	}
	return 1<<uint(n) - 1
}

// runCTA executes one CTA's warps in barrier-synchronised phases: each warp
// runs until it reaches a barrier or exits, then the next warp runs; rounds
// repeat until every warp has exited. This gives barrier-correct shared-
// memory semantics without interleaving at instruction granularity.
func (l *kernelRun) runCTA(ws []*warpState, cta int) error {
	clear(l.shared)
	for _, w := range ws {
		w.reset(cta)
	}
	for {
		allDone := true
		progressed := false
		for _, w := range ws {
			if w.done {
				continue
			}
			allDone = false
			before := len(w.recs)
			if err := w.runUntilBarrierOrExit(); err != nil {
				return err
			}
			if len(w.recs) != before || w.done {
				progressed = true
			}
		}
		if allDone {
			return nil
		}
		if !progressed {
			return fmt.Errorf("emu: kernel %s: CTA %d deadlocked at a barrier", l.k.Name, cta)
		}
	}
}

type stackEntry struct {
	pc   int
	rpc  int // reconvergence PC; -1 for the base entry
	mask uint32
}

// warpState is one warp slot of a CTA. Run reuses it for the same warp
// index of every CTA; reset returns it to a fresh warp's state.
type warpState struct {
	l    *kernelRun
	cta  int
	warp int

	regs   [32][isa.NumRegs]uint64
	preds  [32][isa.NumPreds]bool
	stack  []stackEntry
	exited uint32 // lanes that executed EXIT
	launch uint32 // lanes that exist (partial final warp)
	done   bool
	steps  int

	recs  []trace.Rec
	mems  []trace.Mem // one per memory record
	lanes []uint64    // listed records' addresses; their Mem.Base indexes this
	addrs [32]uint64  // the current memory instruction's lane addresses
}

func (w *warpState) reset(cta int) {
	w.regs = [32][isa.NumRegs]uint64{}
	w.preds = [32][isa.NumPreds]bool{}
	w.stack = append(w.stack[:0], stackEntry{pc: 0, rpc: -1, mask: w.launch})
	w.cta, w.exited, w.done, w.steps = cta, 0, false, 0
	w.recs, w.mems, w.lanes = w.recs[:0], w.mems[:0], w.lanes[:0]
}

// collect copies the warp's records and address entries into exact-size
// storage, moving its listed addresses into the trace's arena.
func (w *warpState) collect(kt *trace.KernelTrace) trace.WarpTrace {
	wt := trace.WarpTrace{CTA: w.cta, Warp: w.warp, Recs: make([]trace.Rec, len(w.recs))}
	copy(wt.Recs, w.recs)
	if len(w.mems) > 0 {
		wt.Mem = make([]trace.Mem, len(w.mems))
		off := uint64(len(kt.Addrs))
		for i, m := range w.mems {
			if m.Listed {
				m.Base += off
			}
			wt.Mem[i] = m
		}
		kt.Addrs = append(kt.Addrs, w.lanes...)
	}
	return wt
}

// runUntilBarrierOrExit advances the warp until it consumes a BAR (returning
// with the barrier recorded) or all lanes exit.
func (w *warpState) runUntilBarrierOrExit() error {
	k := w.l.k
	for {
		if len(w.stack) == 0 {
			w.done = true
			return nil
		}
		top := &w.stack[len(w.stack)-1]
		if top.pc == top.rpc {
			// Reached the reconvergence point of this divergence entry.
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		if top.pc >= len(k.Code) {
			return fmt.Errorf("emu: kernel %s: warp (%d,%d) ran off the end of the code", k.Name, w.cta, w.warp)
		}
		w.steps++
		if w.steps > MaxDynInstrsPerWarp {
			return fmt.Errorf("emu: kernel %s: warp (%d,%d) exceeded %d dynamic instructions",
				k.Name, w.cta, w.warp, MaxDynInstrsPerWarp)
		}
		w.l.records++
		if w.l.records > MaxTraceRecords || w.l.addrs > MaxTraceAddrs {
			return fmt.Errorf("%w: kernel %s: more than %d records or %d explicit lane addresses",
				ErrTraceBudget, k.Name, MaxTraceRecords, MaxTraceAddrs)
		}

		pc := top.pc
		in := &k.Code[pc]
		curMask := top.mask &^ w.exited
		execMask := curMask & w.guardMask(in)
		w.recs = append(w.recs, trace.Rec{PC: int32(pc), Mask: execMask})

		switch in.Op {
		case isa.OpBRA:
			w.branch(top, pc, in, curMask, execMask)
			continue
		case isa.OpEXIT:
			w.exited |= execMask
			if w.exited == w.launch {
				w.done = true
				w.stack = w.stack[:0]
				return nil
			}
			top.pc++
			continue
		case isa.OpBAR:
			top.pc++
			return nil
		}

		if in.Op.Info().IsMem {
			w.recordMem(w.execMem(in, execMask))
		} else if execMask != 0 {
			if err := w.execALU(in, execMask); err != nil {
				return err
			}
		}
		top.pc++
	}
}

// branch implements the SIMT reconvergence stack. Forward branches
// reconverge at the branch target; backward branches at the fall-through.
// Only the path that is not already at the reconvergence point is pushed.
func (w *warpState) branch(top *stackEntry, pc int, in *isa.Instr, curMask, takenMask uint32) {
	ntMask := curMask &^ takenMask
	switch {
	case takenMask == 0:
		top.pc = pc + 1
	case ntMask == 0:
		top.pc = in.Target
	case in.Target > pc:
		// Forward divergent branch: not-taken lanes run the skipped
		// region; taken lanes wait at the target.
		rpc := in.Target
		top.pc = rpc
		w.stack = append(w.stack, stackEntry{pc: pc + 1, rpc: rpc, mask: ntMask})
	default:
		// Backward divergent branch (loop): taken lanes iterate; exiting
		// lanes wait at the fall-through.
		rpc := pc + 1
		top.pc = rpc
		w.stack = append(w.stack, stackEntry{pc: in.Target, rpc: rpc, mask: takenMask})
	}
}

func (w *warpState) guardMask(in *isa.Instr) uint32 {
	if in.Pred == isa.PT {
		if in.PredNeg {
			return 0
		}
		return ^uint32(0)
	}
	var m uint32
	for l := 0; l < 32; l++ {
		v := w.preds[l][in.Pred]
		if in.PredNeg {
			v = !v
		}
		if v {
			m |= 1 << uint(l)
		}
	}
	return m
}

// recordMem stores a memory record's lane addresses: as base + stride when
// they are affine, otherwise in the warp's explicit list.
func (w *warpState) recordMem(addrs []uint64) {
	if m, ok := trace.Affine(addrs); ok {
		w.mems = append(w.mems, m)
		return
	}
	w.mems = append(w.mems, trace.Mem{Base: uint64(len(w.lanes)), Listed: true})
	w.lanes = append(w.lanes, addrs...)
	w.l.addrs += len(addrs)
}

// semOp returns the opcode whose semantics to evaluate.
func semOp(in *isa.Instr) isa.Op {
	if in.SemOp != isa.OpInvalid {
		return in.SemOp
	}
	return in.Op
}

// execMem performs a memory instruction for the lanes in mask and returns
// their addresses in ascending lane order (in the warp's scratch buffer).
func (w *warpState) execMem(in *isa.Instr, mask uint32) []uint64 {
	k, mem := w.l.k, w.l.mem
	addrs := w.addrs[:0]
	for l := 0; l < 32; l++ {
		if mask&(1<<uint(l)) == 0 {
			continue
		}
		addr := w.regs[l][in.Srcs[0]] + uint64(in.Imm)
		addrs = append(addrs, addr)
		if in.SemNop {
			continue
		}
		switch in.Op {
		case isa.OpLDG:
			w.regs[l][in.Dst] = mem.LoadGlobal(addr)
		case isa.OpSTG:
			mem.StoreGlobal(addr, w.regs[l][in.Srcs[1]])
		case isa.OpLDS:
			w.regs[l][in.Dst] = w.l.shared[addr]
		case isa.OpSTS:
			w.l.shared[addr] = w.regs[l][in.Srcs[1]]
		case isa.OpLDC:
			idx := addr / 8
			if idx < uint64(len(k.Params)) {
				w.regs[l][in.Dst] = k.Params[idx]
			} else {
				w.regs[l][in.Dst] = 0
			}
		case isa.OpTEX:
			w.regs[l][in.Dst] = mem.LoadTexture(addr)
		case isa.OpATOMG:
			old := mem.LoadGlobal(addr)
			w.regs[l][in.Dst] = old
			mem.StoreGlobal(addr, uint64(uint32(old)+uint32(w.regs[l][in.Srcs[1]])))
		}
	}
	return addrs
}

func (w *warpState) execALU(in *isa.Instr, mask uint32) error {
	if in.SemNop {
		return nil
	}
	op := semOp(in)
	info := op.Info()
	for l := 0; l < 32; l++ {
		if mask&(1<<uint(l)) == 0 {
			continue
		}
		r := &w.regs[l]
		// Second integer/float operand may come from the immediate.
		src1 := func() uint64 {
			if in.HasImm && in.NSrc < 2 {
				return uint64(in.Imm)
			}
			return r[in.Srcs[1]]
		}
		switch op {
		case isa.OpNOP, isa.OpNANOSLEEP:
		case isa.OpMOV:
			r[in.Dst] = r[in.Srcs[0]]
		case isa.OpMOVI:
			r[in.Dst] = uint64(in.Imm)
		case isa.OpS2R:
			r[in.Dst] = w.sreg(in.SReg, l)
		case isa.OpIADD:
			r[in.Dst] = u32(uint32(r[in.Srcs[0]]) + uint32(src1()))
		case isa.OpIADD3:
			r[in.Dst] = u32(uint32(r[in.Srcs[0]]) + uint32(r[in.Srcs[1]]) + uint32(r[in.Srcs[2]]))
		case isa.OpIMUL:
			r[in.Dst] = u32(uint32(r[in.Srcs[0]]) * uint32(src1()))
		case isa.OpIMAD:
			r[in.Dst] = u32(uint32(r[in.Srcs[0]])*uint32(r[in.Srcs[1]]) + uint32(r[in.Srcs[2]]))
		case isa.OpSHL:
			r[in.Dst] = u32(uint32(r[in.Srcs[0]]) << (uint32(src1()) & 31))
		case isa.OpSHR:
			r[in.Dst] = u32(uint32(r[in.Srcs[0]]) >> (uint32(src1()) & 31))
		case isa.OpAND:
			r[in.Dst] = u32(uint32(r[in.Srcs[0]]) & uint32(src1()))
		case isa.OpOR:
			r[in.Dst] = u32(uint32(r[in.Srcs[0]]) | uint32(src1()))
		case isa.OpXOR:
			r[in.Dst] = u32(uint32(r[in.Srcs[0]]) ^ uint32(src1()))
		case isa.OpIMIN:
			r[in.Dst] = u32(uint32(min32(int32(r[in.Srcs[0]]), int32(src1()))))
		case isa.OpIMAX:
			r[in.Dst] = u32(uint32(max32(int32(r[in.Srcs[0]]), int32(src1()))))
		case isa.OpIABSDIFF:
			d := int64(int32(r[in.Srcs[0]])) - int64(int32(src1()))
			if d < 0 {
				d = -d
			}
			r[in.Dst] = u32(uint32(d))
		case isa.OpISETP:
			w.preds[l][in.Dst] = cmpInt(in.Cmp, int32(r[in.Srcs[0]]), int32(src1()))
		case isa.OpFADD:
			r[in.Dst] = fbits(f32v(r[in.Srcs[0]]) + f32v(src1()))
		case isa.OpFMUL:
			r[in.Dst] = fbits(f32v(r[in.Srcs[0]]) * f32v(src1()))
		case isa.OpFFMA, isa.OpHMMA:
			r[in.Dst] = fbits(f32v(r[in.Srcs[0]])*f32v(r[in.Srcs[1]]) + f32v(r[in.Srcs[2]]))
		case isa.OpFMIN:
			r[in.Dst] = fbits(float32(math.Min(float64(f32v(r[in.Srcs[0]])), float64(f32v(src1())))))
		case isa.OpFMAX:
			r[in.Dst] = fbits(float32(math.Max(float64(f32v(r[in.Srcs[0]])), float64(f32v(src1())))))
		case isa.OpFSETP:
			w.preds[l][in.Dst] = cmpFloat(in.Cmp, f32v(r[in.Srcs[0]]), f32v(src1()))
		case isa.OpDADD:
			r[in.Dst] = math.Float64bits(math.Float64frombits(r[in.Srcs[0]]) + math.Float64frombits(src1()))
		case isa.OpDMUL:
			r[in.Dst] = math.Float64bits(math.Float64frombits(r[in.Srcs[0]]) * math.Float64frombits(src1()))
		case isa.OpDFMA:
			r[in.Dst] = math.Float64bits(math.Float64frombits(r[in.Srcs[0]])*math.Float64frombits(r[in.Srcs[1]]) + math.Float64frombits(r[in.Srcs[2]]))
		case isa.OpMUFURCP:
			r[in.Dst] = fbits(1 / f32v(r[in.Srcs[0]]))
		case isa.OpMUFUSQRT, isa.OpSQRTF32:
			r[in.Dst] = fbits(float32(math.Sqrt(float64(f32v(r[in.Srcs[0]])))))
		case isa.OpRSQRTF32:
			r[in.Dst] = fbits(float32(1 / math.Sqrt(float64(f32v(r[in.Srcs[0]])))))
		case isa.OpMUFULG2:
			r[in.Dst] = fbits(float32(math.Log2(float64(f32v(r[in.Srcs[0]])))))
		case isa.OpMUFUEX2:
			r[in.Dst] = fbits(float32(math.Exp2(float64(f32v(r[in.Srcs[0]])))))
		case isa.OpMUFUSIN, isa.OpSINF32:
			r[in.Dst] = fbits(float32(math.Sin(float64(f32v(r[in.Srcs[0]])))))
		case isa.OpMUFUCOS, isa.OpCOSF32:
			r[in.Dst] = fbits(float32(math.Cos(float64(f32v(r[in.Srcs[0]])))))
		case isa.OpRRO:
			r[in.Dst] = r[in.Srcs[0]]
		case isa.OpEXPF32:
			r[in.Dst] = fbits(float32(math.Exp(float64(f32v(r[in.Srcs[0]])))))
		case isa.OpLOGF32:
			r[in.Dst] = fbits(float32(math.Log(float64(f32v(r[in.Srcs[0]])))))
		case isa.OpDIVS32:
			d := int32(src1())
			if d == 0 {
				r[in.Dst] = 0
			} else {
				r[in.Dst] = u32(uint32(int32(r[in.Srcs[0]]) / d))
			}
		case isa.OpREMS32:
			d := int32(src1())
			if d == 0 {
				r[in.Dst] = 0
			} else {
				r[in.Dst] = u32(uint32(int32(r[in.Srcs[0]]) % d))
			}
		case isa.OpDIVF32:
			r[in.Dst] = fbits(f32v(r[in.Srcs[0]]) / f32v(src1()))
		case isa.OpADDS64:
			r[in.Dst] = r[in.Srcs[0]] + src1()
		default:
			if info.Name != "" {
				return &UnhandledOpcodeError{Kernel: w.l.k.Name, Op: op}
			}
		}
	}
	return nil
}

func (w *warpState) sreg(sr isa.SReg, lane int) uint64 {
	switch sr {
	case isa.SRegLaneID:
		return uint64(lane)
	case isa.SRegTIDX:
		return uint64(w.warp*32 + lane)
	case isa.SRegCTAIDX:
		return uint64(w.cta)
	case isa.SRegNTIDX:
		return uint64(w.l.k.Block.Count())
	case isa.SRegNCTAIDX:
		return uint64(w.l.k.Grid.Count())
	case isa.SRegWarpID:
		return uint64(w.warp)
	case isa.SRegGridTID:
		return uint64(w.cta*w.l.k.Block.Count() + w.warp*32 + lane)
	}
	return 0
}

func u32(v uint32) uint64 { return uint64(v) }

func f32v(bits64 uint64) float32 { return math.Float32frombits(uint32(bits64)) }

func fbits(f float32) uint64 { return uint64(math.Float32bits(f)) }

func f32bits(f float32) uint32 { return math.Float32bits(f) }

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

func cmpInt(c isa.CmpOp, a, b int32) bool {
	switch c {
	case isa.CmpEQ:
		return a == b
	case isa.CmpNE:
		return a != b
	case isa.CmpLT:
		return a < b
	case isa.CmpLE:
		return a <= b
	case isa.CmpGT:
		return a > b
	case isa.CmpGE:
		return a >= b
	}
	return false
}

func cmpFloat(c isa.CmpOp, a, b float32) bool {
	switch c {
	case isa.CmpEQ:
		return a == b
	case isa.CmpNE:
		return a != b
	case isa.CmpLT:
		return a < b
	case isa.CmpLE:
		return a <= b
	case isa.CmpGT:
		return a > b
	case isa.CmpGE:
		return a >= b
	}
	return false
}
