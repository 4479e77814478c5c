package isa_test

import (
	"testing"

	"accelwattch/internal/emu"
	"accelwattch/internal/isa"
)

// FuzzAssemble feeds arbitrary source to the assembler, as awsim and awtrace
// do with a user's file. Every kernel it accepts is lowered to each ISA
// level and executed: the result must be an error or a trace, never a
// panic. The launch is cut to one CTA of at most two warps, so a kernel
// that loops until emu.MaxDynInstrsPerWarp costs a bounded amount of work.
// The corpus under testdata holds the kernels of the examples, the
// commands' -example kernels and the assembler tests' sample program.
func FuzzAssemble(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		k, err := isa.Assemble(src)
		if err != nil {
			if k != nil {
				t.Fatalf("Assemble returned a kernel with error %v", err)
			}
			return
		}
		k.Grid = isa.Dim3{X: 1}
		if k.Block.Count() > 64 {
			k.Block = isa.Dim3{X: 64}
		}
		for _, level := range []isa.Level{isa.PTX, isa.SASS} {
			lk, err := isa.ForLevel(k, level)
			if err != nil {
				continue
			}
			kt, err := emu.Run(lk, emu.NewMemory())
			if err == nil && kt == nil {
				t.Fatalf("emu.Run at %v returned neither a trace nor an error", level)
			}
		}
	})
}
