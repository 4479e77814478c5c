package emu

import (
	"reflect"
	"slices"
	"testing"

	"accelwattch/internal/isa"
	"accelwattch/internal/trace"
)

// warpLoop runs its loop once more in each warp of the grid than in the
// one before, so no two warps execute the same records.
const warpLoop = `.kernel warp_loop
.grid 2
.block 96
    S2R R1, gtid
    SHR R2, R1, 5
    IADD R2, R2, 1
    MOVI R3, 0
loop:
    IADD R3, R3, 1
    ISETP.lt P0, R3, R2
@P0 BRA loop
    EXIT
`

// TestStreamSharing pins how many record streams emu's warps share at both
// ISA levels. leak_probe's CTA 0 takes other branches than CTAs 1 and 2,
// and its third warp is partial, so its nine warps make four streams: a
// warp shares with the same slot in the CTA before or with the warp just
// before. Every warp of diverge_probe and affine_loop runs the same
// records, and no two warps of warp_loop do. Lower of the PTX trace must
// be the SASS trace, streams included (affine_loop's ADD.S64 expands).
func TestStreamSharing(t *testing.T) {
	want := map[string][2]int{ // kernel: warps, streams
		"leak_probe":    {9, 4},
		"diverge_probe": {4, 1},
		"affine_loop":   {8, 1},
		"warp_loop":     {6, 6},
	}
	for _, src := range append(slices.Clone(goldenKernels), warpLoop) {
		k, err := isa.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		sass, err := isa.ForLevel(k, isa.SASS)
		if err != nil {
			t.Fatal(err)
		}
		var kts []*trace.KernelTrace
		for _, kk := range []*isa.Kernel{k, sass} {
			kt, err := Run(kk, nil)
			if err != nil {
				t.Fatalf("%s (%v): %v", kk.Name, kk.Level, err)
			}
			kts = append(kts, kt)
		}
		lowered, err := Lower(kts[0])
		if err != nil {
			t.Fatalf("%s: Lower: %v", k.Name, err)
		}
		if !reflect.DeepEqual(lowered, kts[1]) {
			t.Errorf("%s: Lower of the PTX trace differs from the SASS trace", k.Name)
		}
		for _, kt := range append(kts, lowered) {
			got := [2]int{len(kt.Warps), len(kt.Streams())}
			if got != want[k.Name] {
				t.Errorf("%s (%v): %d warps in %d streams, want %d in %d",
					k.Name, kt.Kernel.Level, got[0], got[1], want[k.Name][0], want[k.Name][1])
			}
		}
	}
}
