package emu

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"accelwattch/internal/isa"
)

func TestFMinMaxAndComparisons(t *testing.T) {
	b := isa.NewKernel("t").Block(32)
	b.MovI(1, f32bitsVal(2.5))
	b.MovI(2, f32bitsVal(-1.0))
	b.Op2(isa.OpFMIN, 3, 1, 2)
	b.Op2(isa.OpFMAX, 4, 1, 2)
	b.SetP(isa.OpFSETP, 0, isa.CmpGT, 1, 2)
	b.MovI(5, 0)
	b.MovI(5, 1).Guard(0)
	storeResult(b, 5)
	b.Exit()
	mem := runKernel(t, b.MustBuild(), nil)
	if mem.LoadGlobal(resultBase) != 1 {
		t.Error("FSETP.gt(2.5, -1) should be true")
	}
}

func TestTextureLoads(t *testing.T) {
	mem := NewMemory()
	mem.Texture[64] = 1234
	b := isa.NewKernel("t").Block(32)
	b.MovI(1, 64)
	b.Ld(isa.OpTEX, 2, 1, 0)
	storeResult(b, 2)
	b.Exit()
	runKernel(t, b.MustBuild(), mem)
	if got := mem.LoadGlobal(resultBase); got != 1234 {
		t.Errorf("texture load returned %d", got)
	}
}

func TestRROIsPassThrough(t *testing.T) {
	b := isa.NewKernel("t").Block(32)
	b.MovI(1, f32bitsVal(0.75))
	b.Op1(isa.OpRRO, 2, 1)
	storeResult(b, 2)
	b.Exit()
	mem := runKernel(t, b.MustBuild(), nil)
	if math.Float32frombits(uint32(mem.LoadGlobal(resultBase))) != 0.75 {
		t.Error("RRO must pass its operand through")
	}
}

func TestAddS64WithImmediate(t *testing.T) {
	b := isa.NewKernel("t").Block(32)
	b.MovI(1, 0x7FFFFFFF) // beyond int32 after the add
	b.Op2i(isa.OpADDS64, 2, 1, 0x10)
	// Store the full 64-bit value through a double store: reuse the
	// result slot and compare as uint64.
	storeResult(b, 2)
	b.Exit()
	mem := runKernel(t, b.MustBuild(), nil)
	if got := mem.LoadGlobal(resultBase); got != 0x8000000F {
		t.Errorf("64-bit add produced %#x", got)
	}
}

func TestDivByZeroIsDefined(t *testing.T) {
	b := isa.NewKernel("t").Block(32)
	b.MovI(1, 42)
	b.MovI(2, 0)
	b.Op2(isa.OpDIVS32, 3, 1, 2)
	b.Op2(isa.OpREMS32, 4, 1, 2)
	storeResult(b, 3)
	b.Exit()
	mem := runKernel(t, b.MustBuild(), nil)
	if mem.LoadGlobal(resultBase) != 0 {
		t.Error("integer division by zero must yield 0, not crash")
	}
}

func TestShiftMasking(t *testing.T) {
	b := isa.NewKernel("t").Block(32)
	b.MovI(1, 1)
	b.Op2i(isa.OpSHL, 2, 1, 33) // 33 & 31 == 1
	storeResult(b, 2)
	b.Exit()
	mem := runKernel(t, b.MustBuild(), nil)
	if mem.LoadGlobal(resultBase) != 2 {
		t.Errorf("shift amount must mask to 5 bits, got %d", mem.LoadGlobal(resultBase))
	}
}

func TestNestedDivergence(t *testing.T) {
	// Nested if-then: lanes < 16 take the outer path; of those, lanes < 8
	// take the inner path.
	b := isa.NewKernel("t").Block(32)
	b.S2R(1, isa.SRegLaneID)
	b.MovI(2, 0)
	b.SetPi(isa.OpISETP, 0, isa.CmpGE, 1, 16)
	b.Bra("outer_end").Guard(0)
	b.Op2i(isa.OpIADD, 2, 2, 1) // +1 for lanes 0..15
	b.SetPi(isa.OpISETP, 1, isa.CmpGE, 1, 8)
	b.Bra("inner_end").Guard(1)
	b.Op2i(isa.OpIADD, 2, 2, 10) // +10 for lanes 0..7
	b.Label("inner_end")
	b.Op2i(isa.OpIADD, 2, 2, 100) // +100 for lanes 0..15
	b.Label("outer_end")
	storeResult(b, 2)
	b.Exit()
	mem := runKernel(t, b.MustBuild(), nil)
	for lane := 0; lane < 32; lane++ {
		var want uint64
		switch {
		case lane < 8:
			want = 111
		case lane < 16:
			want = 101
		default:
			want = 0
		}
		if got := mem.LoadGlobal(uint64(resultBase + lane*4)); got != want {
			t.Errorf("lane %d: got %d, want %d", lane, got, want)
		}
	}
}

func TestMultiCTAIsolatedShared(t *testing.T) {
	// Shared memory must be per-CTA: CTA 0 writes a value that CTA 1
	// must not observe.
	b := isa.NewKernel("t").Grid(2).Block(32)
	b.S2R(1, isa.SRegCTAIDX)
	b.MovI(2, 0)
	b.SetPi(isa.OpISETP, 0, isa.CmpGT, 1, 0)
	b.Bra("read").Guard(0)
	b.MovI(3, 777)
	b.St(isa.OpSTS, 2, 3, 0)
	b.Label("read")
	b.Bar()
	b.Ld(isa.OpLDS, 4, 2, 0)
	// result[cta*128 + lane*4] = shared[0]
	b.S2R(5, isa.SRegLaneID)
	b.Op2i(isa.OpSHL, 5, 5, 2)
	b.Op2i(isa.OpSHL, 6, 1, 7)
	b.Op2(isa.OpIADD, 5, 5, 6)
	b.Op2i(isa.OpIADD, 5, 5, resultBase)
	b.St(isa.OpSTG, 5, 4, 0)
	b.Exit()
	mem := runKernel(t, b.MustBuild(), nil)
	if mem.LoadGlobal(resultBase) != 777 {
		t.Error("CTA 0 must see its own shared write")
	}
	if mem.LoadGlobal(resultBase+128) != 0 {
		t.Error("CTA 1 must not see CTA 0's shared memory")
	}
}

func TestEmuRejectsInvalidKernel(t *testing.T) {
	k := &isa.Kernel{Name: "bad", Level: isa.PTX, Grid: isa.Dim3{X: 1}, Block: isa.Dim3{X: 32}}
	if _, err := Run(k, NewMemory()); err == nil {
		t.Error("kernel without code accepted")
	}
}

// A grid with more warps than the record budget is refused before any CTA
// runs: every warp records at least one instruction.
func TestHugeGridFailsFast(t *testing.T) {
	k, err := isa.Assemble(".kernel huge\n.grid 100000000\n.block 32\n    EXIT\n")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = Run(k, nil)
	if !errors.Is(err, ErrTraceBudget) {
		t.Fatalf("huge grid: %v, want ErrTraceBudget", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Errorf("refusing a huge grid took %v", el)
	}
}

// A launch whose warps each stay within MaxDynInstrsPerWarp but together
// exceed the trace budget stops at the budget: by records for a long loop,
// by explicit lane addresses for a loop of scattered loads.
func TestTraceBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a trace up to its budget")
	}
	loop := func(body string, iters int) *isa.Kernel {
		k, err := isa.Assemble(fmt.Sprintf(`.kernel budget
.block 256
    S2R R1, laneid
    IMUL R2, R1, R1
    SHL R2, R2, 2
    MOVI R3, %d
loop:
%s
    IADD R3, R3, -1
    ISETP.gt P0, R3, 0
@P0 BRA loop
    EXIT
`, iters, body))
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	// 8 warps x 3 records x 1M iterations > MaxTraceRecords.
	if _, err := Run(loop("", 1<<20), nil); !errors.Is(err, ErrTraceBudget) {
		t.Errorf("long loop: %v, want ErrTraceBudget", err)
	}
	// 8 warps x 32 scattered addresses x 256K iterations > MaxTraceAddrs,
	// in 8M records.
	if _, err := Run(loop("    LDG R4, [R2]", 1<<18), nil); !errors.Is(err, ErrTraceBudget) {
		t.Errorf("scattered loads: %v, want ErrTraceBudget", err)
	}
}
