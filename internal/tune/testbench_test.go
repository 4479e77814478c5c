package tune

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"accelwattch/internal/config"
	"accelwattch/internal/emu"
	"accelwattch/internal/isa"
	"accelwattch/internal/ubench"
)

// scatterSrc loads at lane*lane*4, which no stride describes, so the trace
// lists its addresses, then stores the quotient or sum of what it loaded.
const scatterSrc = `.kernel %s
.grid 2
.block 64
    S2R R1, laneid
    S2R R2, gtid
    IMUL R3, R1, R1
    SHL R3, R3, 2
    LDG R4, [R3+4096]
    MOVI R5, 3
    %s R6, R4, R5
    SHL R7, R2, 2
    STG [R7+65536], R6
    EXIT
`

func assemble(t *testing.T, src string) *isa.Kernel {
	t.Helper()
	k, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func scatter(t *testing.T, name, op string) *isa.Kernel {
	t.Helper()
	return assemble(t, fmt.Sprintf(scatterSrc, name, op))
}

// A PTX workload is emulated once: Trace at SASS lowers the stored PTX
// trace and shares its address entries and arena, and its warps too when
// no opcode expands. A SASS workload is emulated directly. A kernel that
// keeps within MaxDynInstrsPerWarp at PTX but not at SASS fails through
// Trace as Run fails at SASS.
func TestTraceLowersPTX(t *testing.T) {
	tb, err := NewTestbench(config.Volta(), ubench.Scale{Iters: 2, Unroll: 1, WarpsPerCTA: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, op string
		expands  bool
	}{{"scatter_div", "DIV.S32", true}, {"scatter_add", "IADD", false}} {
		k := scatter(t, c.name, c.op)
		w := Workload{Name: c.name, Kernel: k}
		sass, err := tb.Trace(w, isa.SASS)
		if err != nil {
			t.Fatal(err)
		}
		ptx, err := tb.Trace(w, isa.PTX)
		if err != nil {
			t.Fatal(err)
		}
		want, err := emu.Run(isa.MustLower(k), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sass.Kernel, want.Kernel) || !reflect.DeepEqual(sass.Warps, want.Warps) ||
			!reflect.DeepEqual(sass.Addrs, want.Addrs) {
			t.Errorf("%s: the SASS trace differs from Run's", c.name)
		}
		if len(ptx.Addrs) == 0 || &sass.Addrs[0] != &ptx.Addrs[0] {
			t.Errorf("%s: the SASS trace does not share the PTX arena", c.name)
		}
		for i := range sass.Warps {
			if &sass.Warps[i].Mem[0] != &ptx.Warps[i].Mem[0] {
				t.Errorf("%s: warp %d does not share its address entries", c.name, i)
			}
		}
		if shared := &sass.Warps[0] == &ptx.Warps[0]; shared == c.expands {
			t.Errorf("%s: the SASS trace shares the PTX warps: %v, want %v", c.name, shared, !c.expands)
		}
	}

	// A SASS kernel is traced on its own, with no PTX entry.
	k := isa.MustLower(scatter(t, "sass_div", "DIV.S32"))
	before := tb.arts.traces.Len()
	kt, err := tb.Trace(Workload{Name: k.Name, Kernel: k}, isa.SASS)
	if err != nil {
		t.Fatal(err)
	}
	if n := tb.arts.traces.Len() - before; n != 1 {
		t.Errorf("tracing a SASS kernel stored %d traces, want 1", n)
	}
	if want, err := emu.Run(k, nil); err != nil || !reflect.DeepEqual(kt, want) {
		t.Errorf("the SASS kernel's trace differs from Run's (%v)", err)
	}

	if testing.Short() {
		return
	}
	// 4 PTX records an iteration, 8 at SASS: 4.0 M records at PTX, past
	// MaxDynInstrsPerWarp at SASS.
	loop := assemble(t, `.kernel div_loop
.block 32
    MOVI R3, 1000000
    MOVI R5, 7
loop:
    DIV.S32 R4, R3, R5
    IADD R3, R3, -1
    ISETP.gt P0, R3, 0
@P0 BRA loop
    EXIT
`)
	w := Workload{Name: loop.Name, Kernel: loop}
	if _, err := tb.Trace(w, isa.PTX); err != nil {
		t.Fatalf("PTX: %v", err)
	}
	_, want := emu.Run(isa.MustLower(loop), nil)
	_, got := tb.Trace(w, isa.SASS)
	if want == nil || got == nil || !strings.HasSuffix(got.Error(), want.Error()) ||
		errors.Is(got, emu.ErrTraceBudget) != errors.Is(want, emu.ErrTraceBudget) {
		t.Errorf("Trace at SASS: %v, want Run's %v", got, want)
	}
}
