package trace

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"accelwattch/internal/isa"
)

// accessOf stores addrs the way emu does (affine when possible, otherwise
// listed) and returns the resulting view.
func accessOf(addrs []uint64) Access {
	mask := uint32(1<<uint(len(addrs)) - 1)
	if len(addrs) == 32 {
		mask = ^uint32(0)
	}
	kt := &KernelTrace{}
	m, ok := Affine(addrs)
	if !ok {
		m = Mem{Listed: true}
		kt.Addrs = addrs
	}
	return kt.Access(m, mask)
}

// refBlocks is the map-based first-touch coalescer Blocks replaces.
func refBlocks(addrs []uint64, blockBytes uint64) []uint64 {
	out := []uint64{}
	seen := map[uint64]bool{}
	for _, a := range addrs {
		b := a &^ (blockBytes - 1)
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	return out
}

// refBankConflicts is the map-based bank-conflict count BankConflicts
// replaces.
func refBankConflicts(addrs []uint64) int {
	counts := map[uint64]int{}
	max := 0
	for _, a := range addrs {
		b := (a / 4) % 32
		counts[b]++
		if counts[b] > max {
			max = counts[b]
		}
	}
	return max
}

func TestBlocks(t *testing.T) {
	cases := []struct {
		addrs []uint64
		block uint64
		want  []uint64
	}{
		{nil, 128, []uint64{}},
		{[]uint64{0, 4, 8, 124}, 128, []uint64{0}},
		{[]uint64{0, 128}, 128, []uint64{0, 128}},
		{[]uint64{0, 31, 32, 63, 64}, 32, []uint64{0, 32, 64}},
		{[]uint64{1000, 1000, 1000}, 32, []uint64{992}},
		{[]uint64{96, 64, 32, 0}, 32, []uint64{96, 64, 32, 0}},                     // affine, descending
		{[]uint64{64, 0, 64, 0, 32}, 32, []uint64{64, 0, 32}},                      // listed, revisits
		{[]uint64{math.MaxUint64 - 7, 0, 8}, 32, []uint64{math.MaxUint64 - 31, 0}}, // wraps
	}
	for i, c := range cases {
		var buf [32]uint64
		if got := accessOf(c.addrs).Blocks(&buf, c.block); !reflect.DeepEqual(got, c.want) {
			t.Errorf("case %d: got %v, want %v", i, got, c.want)
		}
	}
}

func TestBankConflicts(t *testing.T) {
	// Stride-4 bytes across 32 banks: conflict free.
	var dense, conflict []uint64
	for l := 0; l < 32; l++ {
		dense = append(dense, uint64(l*4))
		conflict = append(conflict, uint64(l*128)) // all hit bank 0
	}
	if got := accessOf(dense).BankConflicts(); got != 1 {
		t.Errorf("dense pattern conflicts = %d, want 1", got)
	}
	if got := accessOf(conflict).BankConflicts(); got != 32 {
		t.Errorf("degenerate pattern conflicts = %d, want 32", got)
	}
	if got := accessOf(nil).BankConflicts(); got != 0 {
		t.Errorf("empty = %d", got)
	}
}

// The affine and listed paths must agree with the map-based helpers on
// every lane pattern emu produces: strided, broadcast, wrapping, strides
// that do not fit an int32, and scattered addresses.
func TestAccessMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	strides := []int64{0, 4, -4, 8, 12, 31, 32, 128, -128, 4096, 1 << 20, math.MaxInt32, math.MinInt32, 1 << 33}
	for iter := 0; iter < 4000; iter++ {
		n := r.Intn(33)
		addrs := make([]uint64, n)
		base := r.Uint64()
		if r.Intn(2) == 0 {
			base = uint64(r.Intn(1 << 16))
		}
		stride := strides[r.Intn(len(strides))]
		for i := range addrs {
			addrs[i] = base + uint64(int64(i)*stride)
			if iter%3 == 0 {
				addrs[i] = base + uint64(r.Intn(512))*4
			}
		}
		acc := accessOf(addrs)
		if acc.Len() != n {
			t.Fatalf("len %d, want %d", acc.Len(), n)
		}
		for i, a := range addrs {
			if acc.Lane(i) != a {
				t.Fatalf("lane %d: %#x, want %#x (addrs %v)", i, acc.Lane(i), a, addrs)
			}
		}
		for _, block := range []uint64{32, 128} {
			var buf [32]uint64
			if got, want := acc.Blocks(&buf, block), refBlocks(addrs, block); !reflect.DeepEqual(got, want) {
				t.Fatalf("blocks of %d for %v: %v, want %v", block, addrs, got, want)
			}
		}
		if got, want := acc.BankConflicts(), refBankConflicts(addrs); got != want {
			t.Fatalf("bank conflicts of %v: %d, want %d", addrs, got, want)
		}
	}
}

func TestAffine(t *testing.T) {
	if m, ok := Affine([]uint64{100, 96, 92}); !ok || m.Base != 100 || m.Stride != -4 || m.Listed {
		t.Errorf("descending stride: %+v %v", m, ok)
	}
	if m, ok := Affine([]uint64{7}); !ok || m.Base != 7 || m.Stride != 0 {
		t.Errorf("one lane: %+v %v", m, ok)
	}
	if _, ok := Affine([]uint64{0, 4, 12}); ok {
		t.Error("uneven steps accepted as affine")
	}
	if _, ok := Affine([]uint64{0, 1 << 32}); ok {
		t.Error("a stride beyond int32 accepted as affine")
	}
}

// Coalescing runs once per memory record at every DVFS point of every
// replay, so it must not allocate.
func TestAccessAllocationFree(t *testing.T) {
	listed := accessOf([]uint64{0, 64, 4, 4096, 8})
	affine := accessOf([]uint64{0, 4, 8, 12, 16, 20})
	var n int
	allocs := testing.AllocsPerRun(100, func() {
		var buf [32]uint64
		for _, acc := range [2]Access{listed, affine} {
			n += len(acc.Blocks(&buf, 32)) + acc.BankConflicts()
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per run", allocs)
	}
}

func TestSummarize(t *testing.T) {
	k := &isa.Kernel{Name: "k", Level: isa.SASS, Code: []isa.Instr{
		{Op: isa.OpIADD},
		{Op: isa.OpFFMA},
		{Op: isa.OpLDG, Space: isa.SpaceGlobal},
		{Op: isa.OpLDS, Space: isa.SpaceShared},
	}}
	kt := &KernelTrace{
		Kernel: k,
		Warps: []WarpTrace{{
			CTA: 0, Warp: 0,
			Recs: []Rec{
				{PC: 0, Mask: 0xFFFFFFFF},
				{PC: 1, Mask: 0xFFFF},
				{PC: 2, Mask: 0xF},
				{PC: 3, Mask: 0x3},
			},
			Mem: []Mem{{Base: 0, Listed: true}, {Base: 0, Stride: 128}},
		}},
		Addrs: []uint64{0, 4, 8, 300},
	}
	s := Summarize(kt)
	if s.DynInstrs != 4 || s.ThreadInstrs != 32+16+4+2 {
		t.Errorf("instr counts: %+v", s)
	}
	if s.OpCounts[isa.OpIADD] != 1 || s.UnitCounts[isa.UnitFPU] != 1 {
		t.Error("op/unit counts wrong")
	}
	if s.MemAccesses != 2 || s.GlobalLines != 2 || s.SharedBankMax != 2 {
		t.Errorf("memory stats: %+v", s)
	}
	wantAvg := float64(54) / 4
	if s.AvgLanes != wantAvg {
		t.Errorf("avg lanes %v, want %v", s.AvgLanes, wantAvg)
	}
}

func TestRecActiveLanes(t *testing.T) {
	r := Rec{Mask: 0x0000FFFF}
	if r.ActiveLanes() != 16 {
		t.Error("popcount wrong")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	k := &isa.Kernel{Name: "k", Level: isa.SASS, Grid: isa.Dim3{X: 1}, Block: isa.Dim3{X: 32},
		Code: []isa.Instr{{Op: isa.OpEXIT, Pred: isa.PT}}}
	kt := &KernelTrace{Kernel: k, Warps: []WarpTrace{{Recs: []Rec{{PC: 0, Mask: 1}}}}}
	data, err := Encode(kt)
	if err != nil {
		t.Fatal(err)
	}
	kt2, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if kt2.Kernel.Name != "k" || len(kt2.Warps) != 1 || kt2.Instr(kt2.Warps[0].Recs[0]).Op != isa.OpEXIT {
		t.Error("round trip lost data")
	}
	if _, err := Decode([]byte("garbage")); err == nil {
		t.Error("garbage decoded")
	}
}
