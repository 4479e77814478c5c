package emu

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"accelwattch/internal/isa"
	"accelwattch/internal/trace"
)

// goldenKernels exercise what the functional executor must reproduce bit
// for bit: barriers, divergent branches and loops, partial warps, multi-CTA
// grids, and shared, global, texture and constant memory. leak_probe reads
// registers, predicates and shared memory that only CTA 0 writes before the
// read, so any state carried from one CTA to the next moves its addresses
// or masks.
var goldenKernels = []string{`.kernel leak_probe
.grid 3
.block 80
.shared 512
    S2R R1, tid.x
    S2R R2, ctaid.x
    SHL R3, R1, 2
    ISETP.eq P1, R2, 0
@P1 ISETP.eq P2, R1, R1
@P1 MOVI R9, 4096
    LDS R10, [R3]
    IADD R11, R10, R9
    SHL R12, R11, 3
    LDG R13, [R12+8192]
@P1 STG [R3+65536], R13
    IADD R14, R2, 1
    STS [R3], R14
    BAR
    XOR R15, R3, 4
    LDS R16, [R15]
    SHL R17, R16, 7
    STG [R17+131072], R1
@P2 STG [R3+98304], R1
    EXIT
`, `.kernel diverge_probe
.grid 2
.block 64
.param 3 5 8 13 21
    S2R R1, laneid
    S2R R2, gtid
    AND R3, R1, 3
    IADD R3, R3, 1
    MOVI R4, 0
    IMUL R5, R1, R1
    SHL R5, R5, 2
loop:
    LDG R6, [R5+4096]
    IADD R4, R4, 1
    IADD R5, R5, 128
    ISETP.lt P0, R4, R3
@P0 BRA loop
    AND R7, R1, 1
    ISETP.eq P2, R7, 0
    TEX R8, [R5]
@P2 BRA skip
    SHL R9, R3, 3
    LDC R8, [R9]
skip:
    SHL R10, R2, 2
    ATOMG R11, [R10+262144], R8
    AND R12, R1, 7
    ISETP.eq P3, R12, 7
@P3 EXIT
    STG [R10+524288], R11
    EXIT
`, `.kernel affine_loop
.grid 4
.block 64
    S2R R1, gtid
    SHL R2, R1, 2
    IADD R3, R2, 4194304
    MOVI R4, 6
loop:
    LDG R5, [R3]
    IMAD R6, R5, R5, R6
    ADD.S64 R3, R3, 4096
    IADD R4, R4, -1
    ISETP.gt P0, R4, 0
@P0 BRA loop
    STG [R2], R6
    EXIT
`}

// TestTraceGolden pins a digest of every record the executor emits for
// goldenKernels at both ISA levels: per warp its CTA and warp index, per
// record its PC and active mask, and per memory record its lane addresses.
func TestTraceGolden(t *testing.T) {
	const want = "d14afc1d88b02bf5"
	h := sha256.New()
	for _, src := range goldenKernels {
		k, err := isa.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		sass, err := isa.ForLevel(k, isa.SASS)
		if err != nil {
			t.Fatal(err)
		}
		for _, kk := range []*isa.Kernel{k, sass} {
			mem := NewMemory()
			for i := uint64(0); i < 64; i++ {
				mem.Texture[i*4] = i * 3
			}
			kt, err := Run(kk, mem)
			if err != nil {
				t.Fatalf("%s (%v): %v", kk.Name, kk.Level, err)
			}
			digestTrace(h, kt)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)[:8]); got != want {
		t.Errorf("trace digest %s, want %s", got, want)
	}
}

func digestTrace(h hash.Hash, kt *trace.KernelTrace) {
	word := func(v uint64) { _ = binary.Write(h, binary.LittleEndian, v) }
	h.Write([]byte(kt.Kernel.Name))
	word(uint64(kt.Kernel.Level))
	word(uint64(len(kt.Warps)))
	for _, w := range kt.Warps {
		word(uint64(w.CTA))
		word(uint64(w.Warp))
		word(uint64(len(w.Recs)))
		mi := 0
		for _, r := range w.Recs {
			word(uint64(r.PC))
			word(uint64(r.Mask))
			if !kt.Instr(r).Op.Info().IsMem {
				continue
			}
			acc := kt.Access(w.Mem[mi], r.Mask)
			mi++
			for i := 0; i < acc.Len(); i++ {
				word(acc.Lane(i))
			}
		}
	}
}
