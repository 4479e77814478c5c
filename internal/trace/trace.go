// Package trace defines the dynamic instruction trace format shared by the
// synthetic silicon and the performance simulator. It plays the role NVBit
// SASS traces play in the paper: the functional executor (package emu)
// produces one trace per kernel launch, and both timing models replay it.
//
// A record holds only its PC and active mask; the opcode and memory space
// are those of the kernel's instruction at that PC. A memory record's lane
// addresses live in the trace's arena, stored as base + stride when the
// active lanes step by a constant (as Accel-Sim's tracer stores them) and
// as an explicit list otherwise.
package trace

import (
	"fmt"
	"math"
	"math/bits"

	"accelwattch/internal/isa"
)

// Rec is one dynamic instruction executed by one warp.
type Rec struct {
	PC   int32  // static instruction index in the kernel
	Mask uint32 // active-lane mask at execution
}

// ActiveLanes returns the number of active lanes.
func (r Rec) ActiveLanes() int { return bits.OnesCount32(r.Mask) }

// Mem locates the lane addresses of one memory record. An affine record's
// i-th active lane (in ascending lane order) addresses Base + i*Stride;
// a listed record's addresses are KernelTrace.Addrs[Base:], one per active
// lane.
type Mem struct {
	Base   uint64
	Stride int32
	Listed bool
}

// WarpTrace is the full dynamic instruction stream of one warp.
//
// Recs and Mem are read-only. Recs may alias other warps' Recs within one
// trace: emu gives warps that executed the same records one shared slice.
// Mem may alias the same warp's Mem in the trace of the kernel at the
// other ISA level: emu.Lower builds a SASS trace from a PTX trace, and
// lowering moves no memory record, so the two share their address entries.
type WarpTrace struct {
	CTA  int // CTA index within the grid
	Warp int // warp index within the CTA
	Recs []Rec
	Mem  []Mem // one per memory record of Recs, in record order
}

// KernelTrace is the trace of one kernel launch.
type KernelTrace struct {
	Kernel *isa.Kernel // the kernel at the level that was traced
	Warps  []WarpTrace
	// Addrs holds the lane addresses of the listed memory records, warp
	// by warp in record order. It is read-only: a SASS trace that
	// emu.Lower built shares it with the PTX trace it was lowered from.
	Addrs []uint64
}

// Stream is one distinct record slice of a trace and the number of warps
// whose Recs it is.
type Stream struct {
	Recs  []Rec
	Warps int64
}

// Streams returns the trace's distinct record slices in order of first
// appearance, each with its warp count, skipping warps without records.
// Warps share a stream when their Recs start at the same element and have
// the same length; warps whose equal records are stored apart, as in a
// decoded trace, are separate streams. A count that depends only on a
// warp's records therefore equals, per stream times its warp count, what a
// walk over every warp gives.
func (kt *KernelTrace) Streams() []Stream {
	type key struct {
		first *Rec
		n     int
	}
	var out []Stream
	index := make(map[key]int)
	last, li := key{}, 0 // the previous warp's key and stream
	for wi := range kt.Warps {
		recs := kt.Warps[wi].Recs
		if len(recs) == 0 {
			continue
		}
		if k := (key{&recs[0], len(recs)}); k != last {
			i, ok := index[k]
			if !ok {
				i = len(out)
				index[k] = i
				out = append(out, Stream{Recs: recs})
			}
			last, li = k, i
		}
		out[li].Warps++
	}
	return out
}

// Instr returns the static instruction a record executed.
func (kt *KernelTrace) Instr(r Rec) *isa.Instr { return &kt.Kernel.Code[r.PC] }

// Access returns the lane addresses of a memory record executed with mask.
func (kt *KernelTrace) Access(m Mem, mask uint32) Access {
	n := bits.OnesCount32(mask)
	if m.Listed {
		return Access{n: n, list: kt.Addrs[m.Base : m.Base+uint64(n)]}
	}
	return Access{base: m.Base, stride: int64(m.Stride), n: n}
}

// Affine returns the affine arena entry for lane addresses addrs (in
// ascending lane order), or false when they do not step by one stride that
// fits in an int32.
func Affine(addrs []uint64) (Mem, bool) {
	if len(addrs) == 0 {
		return Mem{}, true
	}
	var d uint64
	if len(addrs) > 1 {
		d = addrs[1] - addrs[0]
	}
	if s := int64(d); s < math.MinInt32 || s > math.MaxInt32 {
		return Mem{}, false
	}
	for i := 2; i < len(addrs); i++ {
		if addrs[i]-addrs[i-1] != d {
			return Mem{}, false
		}
	}
	return Mem{Base: addrs[0], Stride: int32(int64(d))}, true
}

// Access is a view of one warp memory access's lane addresses. It never
// allocates: an affine access computes each lane's address from its base
// and stride, a listed one reads the trace's arena.
type Access struct {
	base   uint64
	stride int64
	n      int
	list   []uint64 // nil for an affine access
}

// Len returns the number of lane addresses (the record's active lanes).
func (a Access) Len() int { return a.n }

// Lane returns the i-th active lane's address.
func (a Access) Lane(i int) uint64 {
	if a.list != nil {
		return a.list[i]
	}
	return a.base + uint64(int64(i)*a.stride)
}

// Blocks returns the distinct blockBytes-aligned blocks (blockBytes a power
// of two) the lanes touch, in first-touch lane order, using buf as storage.
// These are the transactions a coalescing unit issues for the access. The
// lanes of an affine access visit addresses monotonically and span far less
// than the address space, so each block's lanes are consecutive and it is
// enough to compare with the previous block.
func (a Access) Blocks(buf *[32]uint64, blockBytes uint64) []uint64 {
	out := buf[:0]
	mask := ^(blockBytes - 1)
	if a.list == nil {
		for i := 0; i < a.n; i++ {
			b := (a.base + uint64(int64(i)*a.stride)) & mask
			if len(out) == 0 || out[len(out)-1] != b {
				out = append(out, b)
			}
		}
		return out
	}
next:
	for _, addr := range a.list {
		b := addr & mask
		for _, seen := range out {
			if seen == b {
				continue next
			}
		}
		out = append(out, b)
	}
	return out
}

// sharedBanks is the number of 4-byte-interleaved shared-memory banks.
const sharedBanks = 32

// BankConflicts returns the largest number of lane addresses that map to
// one shared-memory bank (1 means conflict-free, 0 means no lanes).
func (a Access) BankConflicts() int {
	var counts [sharedBanks]uint8
	max := uint8(0)
	for i := 0; i < a.n; i++ {
		b := (a.Lane(i) / 4) % sharedBanks
		counts[b]++
		if counts[b] > max {
			max = counts[b]
		}
	}
	return int(max)
}

// Validate checks that the trace can be replayed: a valid kernel, warps
// inside its launch geometry, every PC inside its code, one arena entry per
// memory record and none elsewhere, and listed addresses that tile Addrs in
// warp and record order, one per active lane.
func (kt *KernelTrace) Validate() error {
	if kt.Kernel == nil {
		return fmt.Errorf("trace: no kernel")
	}
	if err := kt.Kernel.Validate(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	code := kt.Kernel.Code
	nCTAs, nWarps := kt.Kernel.Grid.Count(), kt.Kernel.Warps()
	listed := uint64(0)
	for wi := range kt.Warps {
		wt := &kt.Warps[wi]
		if wt.CTA < 0 || wt.CTA >= nCTAs {
			return fmt.Errorf("trace: warp %d: CTA %d outside the grid of %d", wi, wt.CTA, nCTAs)
		}
		if wt.Warp < 0 || wt.Warp >= nWarps {
			return fmt.Errorf("trace: warp %d: warp index %d outside the CTA's %d warps", wi, wt.Warp, nWarps)
		}
		mi := 0
		for ri, r := range wt.Recs {
			if r.PC < 0 || int(r.PC) >= len(code) {
				return fmt.Errorf("trace: warp %d record %d: pc %d outside the kernel's %d instructions", wi, ri, r.PC, len(code))
			}
			if !code[r.PC].Op.Info().IsMem {
				continue
			}
			if mi == len(wt.Mem) {
				return fmt.Errorf("trace: warp %d record %d: memory record without addresses", wi, ri)
			}
			m := wt.Mem[mi]
			mi++
			if !m.Listed {
				continue
			}
			if m.Base != listed {
				return fmt.Errorf("trace: warp %d record %d: addresses at %d, want %d", wi, ri, m.Base, listed)
			}
			listed += uint64(r.ActiveLanes())
			if listed > uint64(len(kt.Addrs)) {
				return fmt.Errorf("trace: warp %d record %d: %d lanes run past the %d listed addresses", wi, ri, r.ActiveLanes(), len(kt.Addrs))
			}
		}
		if mi != len(wt.Mem) {
			return fmt.Errorf("trace: warp %d: %d address entries for %d memory records", wi, len(wt.Mem), mi)
		}
	}
	if listed != uint64(len(kt.Addrs)) {
		return fmt.Errorf("trace: %d listed addresses, records use %d", len(kt.Addrs), listed)
	}
	return nil
}

// Stats summarises a kernel trace.
type Stats struct {
	WarpCount     int
	DynInstrs     int64             // total warp-level dynamic instructions
	ThreadInstrs  int64             // lane-weighted dynamic instructions
	OpCounts      [isa.NumOps]int64 // warp-level counts, indexed by opcode
	UnitCounts    map[isa.Unit]int64
	AvgLanes      float64 // average active lanes per warp instruction
	MemAccesses   int64   // warp-level memory instructions
	GlobalLines   int64   // unique 128B lines touched per global warp access (coalescing)
	SharedBankMax int64   // worst-case shared bank conflicts observed
}

// Summarize computes trace statistics.
func Summarize(kt *KernelTrace) Stats {
	s := Stats{
		WarpCount:  len(kt.Warps),
		UnitCounts: make(map[isa.Unit]int64),
	}
	// Instruction counts depend only on the records: take them once per
	// stream, times its warps.
	for _, st := range kt.Streams() {
		for _, r := range st.Recs {
			op := kt.Instr(r).Op
			info := op.Info()
			s.DynInstrs += st.Warps
			s.ThreadInstrs += st.Warps * int64(r.ActiveLanes())
			s.OpCounts[op] += st.Warps
			s.UnitCounts[info.Unit] += st.Warps
			if info.IsMem {
				s.MemAccesses += st.Warps
			}
		}
	}
	// Coalescing depends on each warp's addresses.
	var buf [32]uint64
	for wi := range kt.Warps {
		wt := &kt.Warps[wi]
		mi := 0
		for _, r := range wt.Recs {
			in := kt.Instr(r)
			if !in.Op.Info().IsMem {
				continue
			}
			acc := kt.Access(wt.Mem[mi], r.Mask)
			mi++
			switch in.Space {
			case isa.SpaceGlobal:
				s.GlobalLines += int64(len(acc.Blocks(&buf, 128)))
			case isa.SpaceShared:
				if c := int64(acc.BankConflicts()); c > s.SharedBankMax {
					s.SharedBankMax = c
				}
			}
		}
	}
	if s.DynInstrs > 0 {
		s.AvgLanes = float64(s.ThreadInstrs) / float64(s.DynInstrs)
	}
	return s
}
