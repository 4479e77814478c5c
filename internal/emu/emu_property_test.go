package emu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"accelwattch/internal/isa"
	"accelwattch/internal/trace"
)

// randomStraightKernel builds a random predicated straight-line kernel that
// stores every register to global memory at the end, so functional
// equivalence can be checked through memory.
func randomStraightKernel(r *rand.Rand) *isa.Kernel {
	b := isa.NewKernel("prop").Block(32)
	b.S2R(1, isa.SRegLaneID)
	// Sprinkle predicates derived from the lane id.
	b.SetPi(isa.OpISETP, 0, isa.CmpLT, 1, int64(r.Intn(33)))
	b.SetPi(isa.OpISETP, 1, isa.CmpGE, 1, int64(r.Intn(33)))
	ops := []isa.Op{isa.OpIADD, isa.OpIMUL, isa.OpIMAD, isa.OpXOR, isa.OpSHL,
		isa.OpIMIN, isa.OpIABSDIFF, isa.OpDIVS32, isa.OpREMS32, isa.OpADDS64}
	for i := 0; i < 2+r.Intn(20); i++ {
		op := ops[r.Intn(len(ops))]
		d := isa.Reg(8 + r.Intn(16))
		a := isa.Reg(8 + r.Intn(16))
		c := isa.Reg(8 + r.Intn(16))
		var in *isa.Instr
		if op.Info().NSrcMin >= 3 {
			in = b.Op3(op, d, a, c, isa.Reg(8+r.Intn(16)))
		} else if r.Intn(2) == 0 {
			in = b.Op2i(op, d, a, int64(1+r.Intn(100)))
		} else {
			in = b.Op2(op, d, a, c)
		}
		switch r.Intn(3) {
		case 0:
			in.Guard(isa.PredReg(r.Intn(2)))
		case 1:
			in.GuardNot(isa.PredReg(r.Intn(2)))
		}
	}
	// Store all working registers.
	for reg := isa.Reg(8); reg < 24; reg++ {
		b.Op2i(isa.OpSHL, 40, 1, 2)
		b.Op2i(isa.OpIADD, 40, 40, int64(0x200000)+int64(reg)*0x100)
		b.St(isa.OpSTG, 40, reg, 0)
	}
	b.Exit()
	return b.MustBuild()
}

// Property: lowering never changes architectural results.
func TestQuickLoweredEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ptx := randomStraightKernel(r)
		sass := isa.MustLower(ptx)
		m1, m2 := NewMemory(), NewMemory()
		if _, err := Run(ptx, m1); err != nil {
			return false
		}
		if _, err := Run(sass, m2); err != nil {
			return false
		}
		if len(m1.Global) != len(m2.Global) {
			return false
		}
		for k, v := range m1.Global {
			if m2.Global[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: every trace validates — one address entry per memory record,
// listed addresses tiling the arena one per active lane — and every
// memory record's addresses are one per active lane.
func TestQuickTraceInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := randomStraightKernel(r)
		kt, err := Run(k, NewMemory())
		if err != nil || kt.Validate() != nil {
			return false
		}
		for _, w := range kt.Warps {
			mi := 0
			for _, rec := range w.Recs {
				if !kt.Instr(rec).Op.Info().IsMem {
					continue
				}
				if kt.Access(w.Mem[mi], rec.Mask).Len() != rec.ActiveLanes() {
					return false
				}
				mi++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: trace encode/decode round-trips.
func TestQuickTraceCodec(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := randomStraightKernel(r)
		kt, err := Run(k, NewMemory())
		if err != nil {
			return false
		}
		data, err := trace.Encode(kt)
		if err != nil {
			return false
		}
		kt2, err := trace.Decode(data)
		if err != nil {
			return false
		}
		if len(kt2.Warps) != len(kt.Warps) {
			return false
		}
		s1, s2 := trace.Summarize(kt), trace.Summarize(kt2)
		return s1.DynInstrs == s2.DynInstrs && s1.ThreadInstrs == s2.ThreadInstrs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: guarded-off lanes never change register state — verified by
// running a kernel with all instructions guarded false and checking that
// stores see zeroes.
func TestQuickGuardedOffLanesUnchanged(t *testing.T) {
	b := isa.NewKernel("gated").Block(32)
	b.SetPi(isa.OpISETP, 0, isa.CmpLT, 1, -1) // always false (R1 is 0)
	b.MovI(2, 99).Guard(0)
	b.Op2i(isa.OpIADD, 3, 2, 1).Guard(0)
	b.S2R(60, isa.SRegLaneID)
	b.Op2i(isa.OpSHL, 60, 60, 2)
	b.Op2i(isa.OpIADD, 60, 60, 0x300000)
	b.St(isa.OpSTG, 60, 2, 0)
	b.Exit()
	mem := NewMemory()
	if _, err := Run(b.MustBuild(), mem); err != nil {
		t.Fatal(err)
	}
	for lane := 0; lane < 32; lane++ {
		if got := mem.LoadGlobal(uint64(0x300000 + lane*4)); got != 0 {
			t.Errorf("lane %d register mutated under false guard: %d", lane, got)
		}
	}
}
