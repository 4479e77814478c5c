package emu

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

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
//
// MaxImagePages bounds the pages of global, texture and shared memory a
// launch's images hold together: 256 MiB of 4 KiB pages, 8.5x above the
// largest Full-scale image (7,680 pages; DESIGN §17). A store loop whose
// lanes stride a page or more apart allocates a page per lane, so this
// bound, not the trace budget, stops it.
const (
	MaxTraceRecords = 1 << 24
	MaxTraceAddrs   = 1 << 25
	MaxImagePages   = 1 << 28 / pageBytes
)

// ErrTraceBudget marks a kernel whose trace would exceed MaxTraceRecords
// records or MaxTraceAddrs explicit lane addresses, or whose memory images
// would exceed MaxImagePages pages. Run returns it wrapped; match with
// errors.Is.
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
// launch whose trace or memory images would outgrow their budgets fails
// with ErrTraceBudget.
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
	l := &kernelRun{k: k, mem: mem, imms: immRows(k), dsts: dstRegs(k)}
	// One warp state per warp slot, reused by every CTA.
	ws := make([]*warpState, nWarps)
	for w := range ws {
		ws[w] = &warpState{l: l, warp: w, launch: laneMask(k.Block.Count() - w*32)}
	}
	kt := &trace.KernelTrace{Kernel: k, Warps: make([]trace.WarpTrace, 0, nCTAs*nWarps)}
	// Listed addresses gather in a recycled buffer; the trace, which may
	// live for a session, gets an exact-size copy.
	arena, _ := arenas.Get().(*[]uint64)
	if arena == nil {
		arena = new([]uint64)
	}
	defer arenas.Put(arena)
	*arena = (*arena)[:0]
	var last []trace.Rec // the records of the warp collected last
	for cta := 0; cta < nCTAs; cta++ {
		if err := l.runCTA(ws, cta); err != nil {
			return nil, err
		}
		for _, w := range ws {
			wt := w.collect(arena, last)
			last = wt.Recs
			kt.Warps = append(kt.Warps, wt)
		}
	}
	kt.Addrs = make([]uint64, len(*arena))
	copy(kt.Addrs, *arena)
	return kt, nil
}

// arenas recycles the buffers Run gathers listed addresses in.
var arenas sync.Pool

// kernelRun is what the warps of one kernel launch share.
type kernelRun struct {
	k       *isa.Kernel
	mem     *Memory
	shared  store         // the running CTA's shared memory
	imms    []*[32]uint64 // per PC, the immediate operand in every lane
	dsts    []isa.Reg     // the registers an instruction may write
	records int           // records traced so far
	addrs   int           // explicit lane addresses traced so far
}

// immRows gives every ALU instruction whose second operand is its
// immediate a row holding the immediate in every lane, so the instruction
// reads it like a source register.
func immRows(k *isa.Kernel) []*[32]uint64 {
	rows := make([]*[32]uint64, len(k.Code))
	for pc := range k.Code {
		if in := &k.Code[pc]; in.HasImm && in.NSrc < 2 && !in.Op.Info().IsMem {
			row := new([32]uint64)
			for l := range row {
				row[l] = uint64(in.Imm)
			}
			rows[pc] = row
		}
	}
	return rows
}

// dstRegs lists the registers some instruction names as its destination.
// No instruction writes any other register, so the others stay 0 for the
// whole launch and a warp slot's reset need not clear them.
func dstRegs(k *isa.Kernel) []isa.Reg {
	var named [isa.NumRegs]bool
	var dsts []isa.Reg
	for pc := range k.Code {
		if r := k.Code[pc].Dst; !named[r] {
			named[r] = true
			dsts = append(dsts, r)
		}
	}
	return dsts
}

// laneMask returns the launch mask of a warp with n threads (clamped to 32).
func laneMask(n int) uint32 {
	if n >= 32 {
		return ^uint32(0)
	}
	return 1<<uint(n) - 1
}

// lane returns the lowest lane set in a nonzero mask. Every per-lane loop
// walks its mask with it, lowest lane first.
func lane(m uint32) int { return bits.TrailingZeros32(m) & 31 }

// runCTA executes one CTA's warps in barrier-synchronised phases: each warp
// runs until it reaches a barrier or exits, then the next warp runs; rounds
// repeat until every warp has exited. This gives barrier-correct shared-
// memory semantics without interleaving at instruction granularity.
func (l *kernelRun) runCTA(ws []*warpState, cta int) error {
	l.shared.zero()
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
//
// The register file is register-major, so an instruction reads and writes
// one contiguous row of 32 lanes per operand, and each predicate register
// is a mask with one bit per lane.
type warpState struct {
	l    *kernelRun
	cta  int
	warp int

	regs   [isa.NumRegs][32]uint64
	preds  [isa.NumPreds]uint32
	stack  []stackEntry
	exited uint32 // lanes that executed EXIT
	launch uint32 // lanes that exist (partial final warp)
	done   bool
	steps  int

	recs  []trace.Rec
	prev  []trace.Rec // the records collect gave this slot's previous warp
	mems  []trace.Mem // one per memory record
	lanes []uint64    // listed records' addresses; their Mem.Base indexes this
	addrs [32]uint64  // the current memory instruction's lane addresses
}

func (w *warpState) reset(cta int) {
	for _, r := range w.l.dsts {
		w.regs[r] = [32]uint64{}
	}
	w.preds = [isa.NumPreds]uint32{}
	w.stack = append(w.stack[:0], stackEntry{pc: 0, rpc: -1, mask: w.launch})
	w.cta, w.exited, w.done, w.steps = cta, 0, false, 0
	w.recs, w.mems, w.lanes = w.recs[:0], w.mems[:0], w.lanes[:0]
}

// collect returns the warp's trace. Its records share an earlier warp's
// exact-size slice when they equal it: the slice this slot collected for
// the previous CTA, or last, the one of the warp collected just before.
// Otherwise they are copied into exact-size storage. The address entries
// are the warp's own, and its listed addresses move to the end of the
// launch's arena.
func (w *warpState) collect(arena *[]uint64, last []trace.Rec) trace.WarpTrace {
	switch {
	case slices.Equal(w.recs, w.prev):
	case slices.Equal(w.recs, last):
		w.prev = last
	default:
		w.prev = make([]trace.Rec, len(w.recs))
		copy(w.prev, w.recs)
	}
	wt := trace.WarpTrace{CTA: w.cta, Warp: w.warp, Recs: w.prev}
	if len(w.mems) > 0 {
		wt.Mem = make([]trace.Mem, len(w.mems))
		off := uint64(len(*arena))
		for i, m := range w.mems {
			if m.Listed {
				m.Base += off
			}
			wt.Mem[i] = m
		}
		*arena = append(*arena, w.lanes...)
	}
	return wt
}

// runUntilBarrierOrExit advances the warp until it consumes a BAR (returning
// with the barrier recorded) or all lanes exit.
func (w *warpState) runUntilBarrierOrExit() error {
	l := w.l
	k := l.k
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
			return stepsError(k.Name, w.cta, w.warp)
		}
		l.records++
		if l.records > MaxTraceRecords || l.addrs > MaxTraceAddrs {
			return recordsError(k.Name)
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
			if n := l.mem.pages() + len(l.shared.pages); n > MaxImagePages {
				return fmt.Errorf("%w: kernel %s: memory images hold %d pages of %d bytes, more than %d",
					ErrTraceBudget, k.Name, n, pageBytes, MaxImagePages)
			}
		} else if execMask != 0 {
			if err := w.execALU(in, pc, execMask); err != nil {
				return err
			}
		}
		top.pc++
	}
}

// stepsError is the error of a warp that runs past MaxDynInstrsPerWarp,
// and recordsError that of a launch whose trace outgrows MaxTraceRecords
// or MaxTraceAddrs. Run and Lower both return them.
func stepsError(kernel string, cta, warp int) error {
	return fmt.Errorf("emu: kernel %s: warp (%d,%d) exceeded %d dynamic instructions",
		kernel, cta, warp, MaxDynInstrsPerWarp)
}

func recordsError(kernel string) error {
	return fmt.Errorf("%w: kernel %s: more than %d records or %d explicit lane addresses",
		ErrTraceBudget, kernel, MaxTraceRecords, MaxTraceAddrs)
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

// guardMask returns the lanes whose guard lets the instruction execute.
func (w *warpState) guardMask(in *isa.Instr) uint32 {
	m := ^uint32(0)
	if in.Pred != isa.PT {
		m = w.preds[in.Pred]
	}
	if in.PredNeg {
		m = ^m
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
// Lanes access memory in ascending order, so the highest of several lanes
// storing to one word wins and atomics apply lane by lane.
func (w *warpState) execMem(in *isa.Instr, mask uint32) []uint64 {
	a, off := &w.regs[in.Srcs[0]], uint64(in.Imm)
	addrs := w.addrs[:0]
	for m := mask; m != 0; m &= m - 1 {
		addrs = append(addrs, a[lane(m)]+off)
	}
	if in.SemNop {
		return addrs
	}
	mem := w.l.mem
	d, v := &w.regs[in.Dst], &w.regs[in.Srcs[1]]
	i := 0
	switch in.Op {
	case isa.OpLDG:
		for m := mask; m != 0; m &= m - 1 {
			d[lane(m)] = mem.global.load(addrs[i])
			i++
		}
	case isa.OpSTG:
		for m := mask; m != 0; m &= m - 1 {
			mem.global.store(addrs[i], v[lane(m)])
			i++
		}
	case isa.OpLDS:
		for m := mask; m != 0; m &= m - 1 {
			d[lane(m)] = w.l.shared.load(addrs[i])
			i++
		}
	case isa.OpSTS:
		for m := mask; m != 0; m &= m - 1 {
			w.l.shared.store(addrs[i], v[lane(m)])
			i++
		}
	case isa.OpLDC:
		params := w.l.k.Params
		for m := mask; m != 0; m &= m - 1 {
			var p uint64
			if idx := addrs[i] / 8; idx < uint64(len(params)) {
				p = params[idx]
			}
			d[lane(m)] = p
			i++
		}
	case isa.OpTEX:
		for m := mask; m != 0; m &= m - 1 {
			d[lane(m)] = mem.texture.load(addrs[i])
			i++
		}
	case isa.OpATOMG:
		// Dst takes the old value before the value register is read, so
		// when the two alias, a lane adds the old value to itself.
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			old := mem.global.load(addrs[i])
			d[l] = old
			mem.global.store(addrs[i], uint64(uint32(old)+uint32(v[l])))
			i++
		}
	}
	return addrs
}

// execALU evaluates a non-memory instruction for the lanes in mask. It
// resolves the operand rows once, then each case loops over the lanes;
// every lane reads its sources before writing its destination, so Dst may
// alias a source.
func (w *warpState) execALU(in *isa.Instr, pc int, mask uint32) error {
	if in.SemNop {
		return nil
	}
	op := semOp(in)
	d, a, c := &w.regs[in.Dst], &w.regs[in.Srcs[0]], &w.regs[in.Srcs[2]]
	// The second integer/float operand may be the immediate.
	b := w.l.imms[pc]
	if b == nil {
		b = &w.regs[in.Srcs[1]]
	}
	switch op {
	case isa.OpNOP, isa.OpNANOSLEEP:
	case isa.OpMOV, isa.OpRRO:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = a[l]
		}
	case isa.OpMOVI:
		v := uint64(in.Imm)
		for m := mask; m != 0; m &= m - 1 {
			d[lane(m)] = v
		}
	case isa.OpS2R:
		base, step := w.sreg(in.SReg)
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = base + uint64(l)*step
		}
	case isa.OpIADD:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = u32(uint32(a[l]) + uint32(b[l]))
		}
	case isa.OpIADD3:
		r1 := &w.regs[in.Srcs[1]]
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = u32(uint32(a[l]) + uint32(r1[l]) + uint32(c[l]))
		}
	case isa.OpIMUL:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = u32(uint32(a[l]) * uint32(b[l]))
		}
	case isa.OpIMAD:
		r1 := &w.regs[in.Srcs[1]]
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = u32(uint32(a[l])*uint32(r1[l]) + uint32(c[l]))
		}
	case isa.OpSHL:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = u32(uint32(a[l]) << (uint32(b[l]) & 31))
		}
	case isa.OpSHR:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = u32(uint32(a[l]) >> (uint32(b[l]) & 31))
		}
	case isa.OpAND:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = u32(uint32(a[l]) & uint32(b[l]))
		}
	case isa.OpOR:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = u32(uint32(a[l]) | uint32(b[l]))
		}
	case isa.OpXOR:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = u32(uint32(a[l]) ^ uint32(b[l]))
		}
	case isa.OpIMIN:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = u32(uint32(min32(int32(a[l]), int32(b[l]))))
		}
	case isa.OpIMAX:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = u32(uint32(max32(int32(a[l]), int32(b[l]))))
		}
	case isa.OpIABSDIFF:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			v := int64(int32(a[l])) - int64(int32(b[l]))
			if v < 0 {
				v = -v
			}
			d[l] = u32(uint32(v))
		}
	case isa.OpISETP:
		cmp, set := in.Cmp, uint32(0)
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			if cmpInt(cmp, int32(a[l]), int32(b[l])) {
				set |= 1 << l
			}
		}
		w.preds[in.Dst] = w.preds[in.Dst]&^mask | set
	case isa.OpFADD:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = fbits(f32v(a[l]) + f32v(b[l]))
		}
	case isa.OpFMUL:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = fbits(f32v(a[l]) * f32v(b[l]))
		}
	case isa.OpFFMA, isa.OpHMMA:
		r1 := &w.regs[in.Srcs[1]]
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = fbits(f32v(a[l])*f32v(r1[l]) + f32v(c[l]))
		}
	case isa.OpFMIN:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = fbits(float32(math.Min(float64(f32v(a[l])), float64(f32v(b[l])))))
		}
	case isa.OpFMAX:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = fbits(float32(math.Max(float64(f32v(a[l])), float64(f32v(b[l])))))
		}
	case isa.OpFSETP:
		cmp, set := in.Cmp, uint32(0)
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			if cmpFloat(cmp, f32v(a[l]), f32v(b[l])) {
				set |= 1 << l
			}
		}
		w.preds[in.Dst] = w.preds[in.Dst]&^mask | set
	case isa.OpDADD:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = math.Float64bits(math.Float64frombits(a[l]) + math.Float64frombits(b[l]))
		}
	case isa.OpDMUL:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = math.Float64bits(math.Float64frombits(a[l]) * math.Float64frombits(b[l]))
		}
	case isa.OpDFMA:
		r1 := &w.regs[in.Srcs[1]]
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = math.Float64bits(math.Float64frombits(a[l])*math.Float64frombits(r1[l]) + math.Float64frombits(c[l]))
		}
	case isa.OpMUFURCP:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = fbits(1 / f32v(a[l]))
		}
	case isa.OpMUFUSQRT, isa.OpSQRTF32:
		mathF32(d, a, mask, math.Sqrt)
	case isa.OpRSQRTF32:
		mathF32(d, a, mask, rsqrt)
	case isa.OpMUFULG2:
		mathF32(d, a, mask, math.Log2)
	case isa.OpMUFUEX2:
		mathF32(d, a, mask, math.Exp2)
	case isa.OpMUFUSIN, isa.OpSINF32:
		mathF32(d, a, mask, math.Sin)
	case isa.OpMUFUCOS, isa.OpCOSF32:
		mathF32(d, a, mask, math.Cos)
	case isa.OpEXPF32:
		mathF32(d, a, mask, math.Exp)
	case isa.OpLOGF32:
		mathF32(d, a, mask, math.Log)
	case isa.OpDIVS32:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			var q uint64
			if v := int32(b[l]); v != 0 {
				q = u32(uint32(int32(a[l]) / v))
			}
			d[l] = q
		}
	case isa.OpREMS32:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			var r uint64
			if v := int32(b[l]); v != 0 {
				r = u32(uint32(int32(a[l]) % v))
			}
			d[l] = r
		}
	case isa.OpDIVF32:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = fbits(f32v(a[l]) / f32v(b[l]))
		}
	case isa.OpADDS64:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = a[l] + b[l]
		}
	default:
		if op.Info().Name != "" {
			return &UnhandledOpcodeError{Kernel: w.l.k.Name, Op: op}
		}
	}
	return nil
}

// mathF32 evaluates a float32 op through a float64 math function on the
// lanes in mask. Kernels mostly hand SFU ops a warp-uniform operand (all
// 2.2 M such warp instructions of a Quick Volta tune + validate do), so
// when every active lane holds the same bits f runs once and its result
// goes to every active lane: f is a pure function of those bits.
func mathF32(d, a *[32]uint64, mask uint32, f func(float64) float64) {
	x, uniform := a[lane(mask)], true
	for m := mask; m != 0; m &= m - 1 {
		if a[lane(m)] != x {
			uniform = false
			break
		}
	}
	if uniform {
		v := fbits(float32(f(float64(f32v(x)))))
		for m := mask; m != 0; m &= m - 1 {
			d[lane(m)] = v
		}
		return
	}
	for m := mask; m != 0; m &= m - 1 {
		l := lane(m)
		d[l] = fbits(float32(f(float64(f32v(a[l])))))
	}
}

func rsqrt(x float64) float64 { return 1 / math.Sqrt(x) }

// sreg returns a special register's value in lane 0 and its step per lane.
func (w *warpState) sreg(sr isa.SReg) (base, step uint64) {
	switch sr {
	case isa.SRegLaneID:
		return 0, 1
	case isa.SRegTIDX:
		return uint64(w.warp * 32), 1
	case isa.SRegCTAIDX:
		return uint64(w.cta), 0
	case isa.SRegNTIDX:
		return uint64(w.l.k.Block.Count()), 0
	case isa.SRegNCTAIDX:
		return uint64(w.l.k.Grid.Count()), 0
	case isa.SRegWarpID:
		return uint64(w.warp), 0
	case isa.SRegGridTID:
		return uint64(w.cta*w.l.k.Block.Count() + w.warp*32), 1
	}
	return 0, 0
}

func u32(v uint32) uint64 { return uint64(v) }

func f32v(bits64 uint64) float32 { return math.Float32frombits(uint32(bits64)) }

func fbits(f float32) uint64 { return uint64(math.Float32bits(f)) }

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
