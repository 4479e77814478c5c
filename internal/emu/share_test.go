package emu

import (
	"slices"
	"testing"

	"accelwattch/internal/isa"
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
// records, and no two warps of warp_loop do.
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
		for _, kk := range []*isa.Kernel{k, sass} {
			kt, err := Run(kk, nil)
			if err != nil {
				t.Fatalf("%s (%v): %v", kk.Name, kk.Level, err)
			}
			got := [2]int{len(kt.Warps), len(kt.Streams())}
			if got != want[kk.Name] {
				t.Errorf("%s (%v): %d warps in %d streams, want %d in %d",
					kk.Name, kk.Level, got[0], got[1], want[kk.Name][0], want[kk.Name][1])
			}
		}
	}
}
