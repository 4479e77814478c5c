package emu

import (
	"math"
	"testing"

	"accelwattch/internal/isa"
)

// runSingle executes a single-warp kernel and returns final register values
// for lane 0 via a store the test inserts, by re-running with direct state
// inspection. For simplicity, tests assemble kernels that store results to
// global memory and assert on memory contents.
func runKernel(t *testing.T, k *isa.Kernel, mem *Memory) *Memory {
	t.Helper()
	if mem == nil {
		mem = NewMemory()
	}
	if _, err := Run(k, mem); err != nil {
		t.Fatalf("emu.Run: %v", err)
	}
	return mem
}

const resultBase = 0x100000

// storeResult emits a store of reg to resultBase + lane*4.
func storeResult(b *isa.Builder, reg isa.Reg) {
	b.S2R(60, isa.SRegLaneID)
	b.Op2i(isa.OpSHL, 60, 60, 2)
	b.Op2i(isa.OpIADD, 60, 60, resultBase)
	b.St(isa.OpSTG, 60, reg, 0)
}

func f32bitsVal(f float32) int64 { return int64(math.Float32bits(f)) }

func TestIntArithmetic(t *testing.T) {
	cases := []struct {
		name string
		op   isa.Op
		a, b int32
		cmp  isa.CmpOp
		want uint32
	}{
		{"add", isa.OpIADD, 7, 5, 0, 12},
		{"add negative", isa.OpIADD, -7, 5, 0, 0xFFFFFFFE},
		{"mul", isa.OpIMUL, 6, 7, 0, 42},
		{"mul wrap", isa.OpIMUL, 1 << 20, 1 << 20, 0, 0},
		{"and", isa.OpAND, 0b1100, 0b1010, 0, 0b1000},
		{"or", isa.OpOR, 0b1100, 0b1010, 0, 0b1110},
		{"xor", isa.OpXOR, 0b1100, 0b1010, 0, 0b0110},
		{"min", isa.OpIMIN, -3, 2, 0, 0xFFFFFFFD},
		{"max", isa.OpIMAX, -3, 2, 0, 2},
		{"absdiff", isa.OpIABSDIFF, 3, 10, 0, 7},
		{"shl", isa.OpSHL, 1, 4, 0, 16},
		{"shr", isa.OpSHR, 16, 2, 0, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := isa.NewKernel("t").Block(32)
			b.MovI(1, int64(c.a))
			b.MovI(2, int64(c.b))
			b.Op2(c.op, 3, 1, 2)
			storeResult(b, 3)
			b.Exit()
			mem := runKernel(t, b.MustBuild(), nil)
			if got := uint32(mem.LoadGlobal(resultBase)); got != c.want {
				t.Errorf("got %#x, want %#x", got, c.want)
			}
		})
	}
}

func TestIntMadDivRem(t *testing.T) {
	b := isa.NewKernel("t").Block(32)
	b.MovI(1, 6)
	b.MovI(2, 7)
	b.MovI(3, 5)
	b.Op3(isa.OpIMAD, 4, 1, 2, 3) // 47
	b.Op2(isa.OpDIVS32, 5, 4, 2)  // 6
	b.Op2(isa.OpREMS32, 6, 4, 2)  // 5
	b.Op2i(isa.OpIADD, 7, 5, 0)
	storeResult(b, 4)
	b.Exit()
	mem := runKernel(t, b.MustBuild(), nil)
	if got := mem.LoadGlobal(resultBase); got != 47 {
		t.Errorf("imad: got %d, want 47", got)
	}
}

func TestFloatOps(t *testing.T) {
	b := isa.NewKernel("t").Block(32)
	b.MovI(1, f32bitsVal(1.5))
	b.MovI(2, f32bitsVal(2.0))
	b.MovI(3, f32bitsVal(0.25))
	b.Op3(isa.OpFFMA, 4, 1, 2, 3) // 3.25
	storeResult(b, 4)
	b.Exit()
	mem := runKernel(t, b.MustBuild(), nil)
	got := math.Float32frombits(uint32(mem.LoadGlobal(resultBase)))
	if got != 3.25 {
		t.Errorf("ffma: got %v, want 3.25", got)
	}
}

func TestDoubleOps(t *testing.T) {
	b := isa.NewKernel("t").Block(32)
	b.MovI(1, int64(math.Float64bits(1.5)))
	b.MovI(2, int64(math.Float64bits(2.5)))
	b.Op2(isa.OpDMUL, 3, 1, 2) // 3.75
	storeResult(b, 3)
	b.Exit()
	mem := runKernel(t, b.MustBuild(), nil)
	got := math.Float64frombits(mem.LoadGlobal(resultBase))
	if got != 3.75 {
		t.Errorf("dmul: got %v, want 3.75", got)
	}
}

func TestSFUAndPTXTranscendentals(t *testing.T) {
	b := isa.NewKernel("t").Block(32)
	b.MovI(1, f32bitsVal(4.0))
	b.Op1(isa.OpSQRTF32, 2, 1) // 2.0
	b.Op1(isa.OpEXPF32, 3, 1)  // e^4
	b.Op1(isa.OpMUFURCP, 4, 1) // 0.25
	storeResult(b, 2)
	b.Exit()
	mem := runKernel(t, b.MustBuild(), nil)
	got := math.Float32frombits(uint32(mem.LoadGlobal(resultBase)))
	if got != 2.0 {
		t.Errorf("sqrt: got %v, want 2", got)
	}
}

// Lowered kernels must compute the same results as their PTX sources.
func TestLoweredSemanticsMatch(t *testing.T) {
	b := isa.NewKernel("t").Block(32)
	b.MovI(1, 47)
	b.MovI(2, 7)
	b.Op2(isa.OpDIVS32, 3, 1, 2)
	b.MovI(4, f32bitsVal(9.0))
	b.Op1(isa.OpSQRTF32, 5, 4)
	b.Op1(isa.OpSINF32, 6, 4)
	b.Op2(isa.OpADDS64, 7, 1, 2)
	storeResult(b, 3)
	b.Exit()
	ptx := b.MustBuild()
	sass := isa.MustLower(ptx)

	m1 := runKernel(t, ptx, nil)
	m2 := runKernel(t, sass, nil)
	if m1.LoadGlobal(resultBase) != m2.LoadGlobal(resultBase) {
		t.Errorf("PTX result %d != SASS result %d",
			m1.LoadGlobal(resultBase), m2.LoadGlobal(resultBase))
	}
	if m1.LoadGlobal(resultBase) != 6 {
		t.Errorf("div: got %d, want 6", m1.LoadGlobal(resultBase))
	}
}

func TestSpecialRegisters(t *testing.T) {
	b := isa.NewKernel("t").Grid(3).Block(64)
	b.S2R(1, isa.SRegGridTID)
	b.Op2i(isa.OpSHL, 2, 1, 2)
	b.Op2i(isa.OpIADD, 2, 2, resultBase)
	b.St(isa.OpSTG, 2, 1, 0)
	b.Exit()
	mem := runKernel(t, b.MustBuild(), nil)
	for tid := 0; tid < 3*64; tid++ {
		if got := mem.LoadGlobal(uint64(resultBase + tid*4)); got != uint64(tid) {
			t.Fatalf("gtid %d stored %d", tid, got)
		}
	}
}

func TestLoopTripCount(t *testing.T) {
	b := isa.NewKernel("t").Block(32)
	b.MovI(1, 10) // counter
	b.MovI(2, 0)  // accumulator
	b.Label("loop")
	b.Op2i(isa.OpIADD, 2, 2, 3)
	b.Op2i(isa.OpIADD, 1, 1, -1)
	b.SetPi(isa.OpISETP, 0, isa.CmpGT, 1, 0)
	b.Bra("loop").Guard(0)
	storeResult(b, 2)
	b.Exit()
	mem := runKernel(t, b.MustBuild(), nil)
	if got := mem.LoadGlobal(resultBase); got != 30 {
		t.Errorf("loop accumulated %d, want 30", got)
	}
}

// Divergence: lanes below 16 take one path, others another; both sides
// reconverge and store distinct values.
func TestBranchDivergence(t *testing.T) {
	b := isa.NewKernel("t").Block(32)
	b.S2R(1, isa.SRegLaneID)
	b.SetPi(isa.OpISETP, 0, isa.CmpGE, 1, 16)
	b.MovI(2, 100)
	b.Bra("high").Guard(0)
	b.MovI(2, 7) // low lanes only
	b.Label("high")
	storeResult(b, 2)
	b.Exit()
	mem := runKernel(t, b.MustBuild(), nil)
	for lane := 0; lane < 32; lane++ {
		want := uint64(7)
		if lane >= 16 {
			want = 100
		}
		if got := mem.LoadGlobal(uint64(resultBase + lane*4)); got != want {
			t.Errorf("lane %d: got %d, want %d", lane, got, want)
		}
	}
}

// Divergent loop: each lane iterates lane+1 times.
func TestDivergentLoop(t *testing.T) {
	b := isa.NewKernel("t").Block(32)
	b.S2R(1, isa.SRegLaneID)
	b.Op2i(isa.OpIADD, 2, 1, 1) // counter = lane+1
	b.MovI(3, 0)
	b.Label("loop")
	b.Op2i(isa.OpIADD, 3, 3, 1)
	b.Op2i(isa.OpIADD, 2, 2, -1)
	b.SetPi(isa.OpISETP, 0, isa.CmpGT, 2, 0)
	b.Bra("loop").Guard(0)
	storeResult(b, 3)
	b.Exit()
	mem := runKernel(t, b.MustBuild(), nil)
	for lane := 0; lane < 32; lane++ {
		if got := mem.LoadGlobal(uint64(resultBase + lane*4)); got != uint64(lane+1) {
			t.Errorf("lane %d iterated %d times, want %d", lane, got, lane+1)
		}
	}
}

// Shared memory with barriers: warp 0 writes, all warps read after BAR.
func TestSharedMemoryBarrier(t *testing.T) {
	b := isa.NewKernel("t").Block(64).Shared(256)
	b.S2R(1, isa.SRegWarpID)
	b.S2R(2, isa.SRegTIDX)
	b.SetPi(isa.OpISETP, 0, isa.CmpGT, 1, 0)
	b.Bra("waitbar").Guard(0)
	// Warp 0: shared[lane*4] = lane + 50.
	b.S2R(3, isa.SRegLaneID)
	b.Op2i(isa.OpSHL, 4, 3, 2)
	b.Op2i(isa.OpIADD, 5, 3, 50)
	b.St(isa.OpSTS, 4, 5, 0)
	b.Label("waitbar")
	b.Bar()
	// All threads: read shared[lane*4].
	b.S2R(3, isa.SRegLaneID)
	b.Op2i(isa.OpSHL, 4, 3, 2)
	b.Ld(isa.OpLDS, 6, 4, 0)
	// Store to result + tid*4.
	b.Op2i(isa.OpSHL, 7, 2, 2)
	b.Op2i(isa.OpIADD, 7, 7, resultBase)
	b.St(isa.OpSTG, 7, 6, 0)
	b.Exit()
	mem := runKernel(t, b.MustBuild(), nil)
	for tid := 0; tid < 64; tid++ {
		want := uint64(tid%32 + 50)
		if got := mem.LoadGlobal(uint64(resultBase + tid*4)); got != want {
			t.Errorf("tid %d read %d from shared, want %d", tid, got, want)
		}
	}
}

func TestAtomicAdd(t *testing.T) {
	b := isa.NewKernel("t").Grid(2).Block(64)
	b.MovI(1, resultBase)
	b.MovI(2, 1)
	b.AtomAdd(3, 1, 2, 0)
	b.Exit()
	mem := runKernel(t, b.MustBuild(), nil)
	if got := mem.LoadGlobal(resultBase); got != 128 {
		t.Errorf("atomic counter = %d, want 128", got)
	}
}

func TestPointerChase(t *testing.T) {
	mem := NewMemory()
	mem.PointerChase(0x1000, 8, 64)
	b := isa.NewKernel("t").Block(32)
	b.MovI(1, 0x1000)
	for i := 0; i < 16; i++ {
		b.Ld(isa.OpLDG, 1, 1, 0)
	}
	storeResult(b, 1)
	b.Exit()
	runKernel(t, b.MustBuild(), mem)
	got := mem.LoadGlobal(resultBase)
	// After 16 hops on an 8-node ring the pointer must be a valid node.
	if (got-0x1000)%64 != 0 || got < 0x1000 || got >= 0x1000+8*64 {
		t.Errorf("pointer %#x escaped the ring", got)
	}
}

func TestTraceMasksAndAddrs(t *testing.T) {
	b := isa.NewKernel("t").Block(32)
	b.S2R(1, isa.SRegLaneID)
	b.SetPi(isa.OpISETP, 0, isa.CmpLT, 1, 8)
	b.Bra("end").GuardNot(0)
	b.Op2i(isa.OpSHL, 2, 1, 2)
	b.Ld(isa.OpLDG, 3, 2, 0)
	b.Label("end")
	b.Exit()
	kt, err := Run(b.MustBuild(), NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	w := &kt.Warps[0]
	for _, r := range w.Recs {
		if kt.Instr(r).Op == isa.OpLDG {
			found = true
			if r.ActiveLanes() != 8 {
				t.Errorf("LDG mask has %d lanes, want 8", r.ActiveLanes())
			}
			acc := kt.Access(w.Mem[0], r.Mask)
			if acc.Len() != 8 {
				t.Errorf("LDG recorded %d addresses, want 8", acc.Len())
			}
			for i := 0; i < acc.Len(); i++ {
				if a := acc.Lane(i); a != uint64(i*4) {
					t.Errorf("lane %d address %#x, want %#x", i, a, i*4)
				}
			}
		}
	}
	if !found {
		t.Fatal("LDG not in trace")
	}
}

func TestPartialWarp(t *testing.T) {
	b := isa.NewKernel("t").Block(40) // warp 1 has 8 lanes
	b.Op2i(isa.OpIADD, 1, 1, 1)
	b.Exit()
	kt, err := Run(b.MustBuild(), NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	if len(kt.Warps) != 2 {
		t.Fatalf("got %d warps, want 2", len(kt.Warps))
	}
	if got := kt.Warps[1].Recs[0].ActiveLanes(); got != 8 {
		t.Errorf("partial warp executes %d lanes, want 8", got)
	}
}

func TestRunawayKernelDetected(t *testing.T) {
	b := isa.NewKernel("t").Block(32)
	b.Label("forever")
	b.Nop()
	b.Bra("forever")
	b.Exit()
	if _, err := Run(b.MustBuild(), NewMemory()); err == nil {
		t.Error("infinite loop not detected")
	}
}

func TestNanosleepTraced(t *testing.T) {
	b := isa.NewKernel("t").Block(32)
	b.Nanosleep(500)
	b.Exit()
	kt, err := Run(b.MustBuild(), NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	if kt.Instr(kt.Warps[0].Recs[0]).Op != isa.OpNANOSLEEP {
		t.Error("nanosleep missing from trace")
	}
}
