package isa_test

import (
	"errors"
	"reflect"
	"testing"

	"accelwattch/internal/emu"
	"accelwattch/internal/isa"
)

// FuzzAssemble feeds arbitrary source to the assembler, as awsim and awtrace
// do with a user's file. Every kernel it accepts is executed at PTX and,
// lowered, at SASS: each run must give an error or a trace, never a panic.
// emu.Lower of the PTX trace must be the SASS trace, or fail exactly when
// the SASS run fails, with the same emu.ErrTraceBudget answer; a PTX run
// that fails must fail at SASS too.
// The launch is cut to one CTA of at most two warps, so a kernel that
// loops until emu.MaxDynInstrsPerWarp costs a bounded amount of work.
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
		ptx, ptxErr := emu.Run(k, emu.NewMemory())
		if ptxErr == nil && ptx == nil {
			t.Fatalf("emu.Run at PTX returned neither a trace nor an error")
		}
		sk, err := isa.Lower(k)
		if err != nil {
			if ptxErr == nil {
				t.Fatalf("the PTX kernel runs but does not lower: %v", err)
			}
			return
		}
		sass, sassErr := emu.Run(sk, emu.NewMemory())
		if sassErr == nil && sass == nil {
			t.Fatalf("emu.Run at SASS returned neither a trace nor an error")
		}
		if ptxErr != nil {
			if sassErr == nil {
				t.Fatalf("the PTX run failed (%v) and the SASS run did not", ptxErr)
			}
			return
		}
		lowered, lowerErr := emu.Lower(ptx)
		switch {
		case sassErr != nil:
			if lowerErr == nil || errors.Is(lowerErr, emu.ErrTraceBudget) != errors.Is(sassErr, emu.ErrTraceBudget) {
				t.Fatalf("emu.Lower: %v, the SASS run: %v", lowerErr, sassErr)
			}
		case lowerErr != nil:
			t.Fatalf("emu.Lower: %v, the SASS run succeeded", lowerErr)
		case !reflect.DeepEqual(lowered.Kernel, sass.Kernel) || !reflect.DeepEqual(lowered.Warps, sass.Warps) ||
			!reflect.DeepEqual(lowered.Addrs, sass.Addrs):
			t.Fatalf("emu.Lower of the PTX trace differs from the SASS trace")
		}
	})
}
