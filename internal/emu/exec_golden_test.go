package emu

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"strings"
	"testing"

	"accelwattch/internal/isa"
)

// Operand tables of the exec probe, indexed by global thread id. The 32-bit
// patterns mix integer edges (0, -1, INT32_MIN, shift counts of 32 and
// more, negatives that are not float NaNs) with float32 edges (NaN
// payloads, ±Inf, -0, denormals); the 64-bit patterns do the same for
// float64 and carry out of the low word.
var (
	execU32 = []uint32{
		0, 1, 2, 3, 7, 31, 32, 33, 63, 0xFFFFFFFF, 0xFFFFFFF9, 0x80000000,
		0x7FFFFFFF, 0x400, 0x3F800000, 0xBF800000, 0x3FC00000, 0xC0100000,
		0x7FC00000, 0x7FA00000, 0xFFC00001, 0x7F800000, 0xFF800000, 0x00400000,
		0x807FFFFF, 0x7F7FFFFF, 0x00800000, 0x40490FDB, 0x42C80000, 0xC2C80000,
		0x3DCCCCCD, 0x00000005, 0xFF7FFFFF, 0xFA0A1F00,
	}
	execU64 = []uint64{
		0, math.Float64bits(1), math.Float64bits(-1), math.Float64bits(0.5),
		math.Float64bits(1e300), math.Float64bits(-1e-310), math.Float64bits(math.NaN()),
		math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)), 1 << 63,
		0xFFFFFFFFFFFFFFFF, 0x7FFFFFFF, 0xFFFFFFFF, 0x00000001FFFFFFFF,
		math.Float64bits(math.Pi), 1<<53 + 1, 0x7FF4000000000001, math.Float64bits(-3.75),
	}
)

// Addresses of the exec probe's tables and results.
const (
	execA, execB, execC    = 0x10000, 0x11000, 0x12000 // 32-bit operands
	execDA, execDB, execDC = 0x20000, 0x21000, 0x22000 // 64-bit operands
	execTex                = 0x40000                   // texture table
	execAtom               = 0x50000                   // atomic counters
	execOut                = 0x100000                  // results, 0x400 apart
)

// execProbe returns a kernel that runs every opcode execALU and execMem
// implement over the operand tables: register and immediate forms, plain,
// negated and constant guards, a partial second warp (48 threads per CTA),
// a divergent branch region and loop, shared memory across a barrier, and
// aligned, unaligned and wrapping addresses. Every result is stored to its
// own slot of global memory, so the final image pins every computed value.
func execProbe() string {
	var s strings.Builder
	slot := 0
	emit := func(format string, args ...any) { fmt.Fprintf(&s, format+"\n", args...) }
	store := func(reg string) {
		emit("    STG [R4+%#x], %s", slot*0x400, reg)
		slot++
	}
	guards := []string{"", "@P1 ", "@!P2 ", "@P3 ", "@!P1 "}
	gi := 0
	// op computes into R20 under the next guard, after a sentinel that
	// shows which lanes the guard kept.
	op := func(format string, args ...any) {
		g := guards[gi%len(guards)]
		gi++
		emit("    MOVI R20, 0x5A5A5A5A")
		emit("%s"+format, append([]any{g}, args...)...)
		store("R20")
	}
	// setp evaluates a comparison into P4 under the next guard, over a
	// prior P4 that is true on lanes 0-9, and stores P4 through guarded
	// stores of both polarities.
	setp := func(format string, args ...any) {
		g := guards[gi%len(guards)]
		gi++
		emit("    ISETP.lt P4, R1, 10")
		emit("%s"+format, append([]any{g}, args...)...)
		emit("@P4 STG [R4+%#x], R30", slot*0x400)
		emit("@!P4 STG [R4+%#x], R31", slot*0x400+1)
		slot++
	}

	emit(".kernel exec_probe")
	emit(".grid 2")
	emit(".block 48")
	emit(".shared 4096")
	emit(".param 11 22 33")
	emit("    S2R R1, laneid")
	emit("    S2R R2, gtid")
	emit("    SHL R3, R2, 2")
	emit("    IADD R4, R3, %#x", execOut)
	emit("    LDG R10, [R3+%#x]", execA)
	emit("    LDG R11, [R3+%#x]", execB)
	emit("    LDG R12, [R3+%#x]", execC)
	emit("    LDG R13, [R3+%#x]", execDA)
	emit("    LDG R14, [R3+%#x]", execDB)
	emit("    LDG R15, [R3+%#x]", execDC)
	emit("    MOVI R30, 0x11")
	emit("    MOVI R31, 0x22")
	emit("    ISETP.lt P1, R1, 20")
	emit("    AND R5, R1, 1")
	emit("    ISETP.eq P2, R5, 1")
	emit("    ISETP.ge P3, R2, 40")

	// Special registers, moves and no-ops.
	for _, sr := range []string{"laneid", "tid.x", "ctaid.x", "ntid.x", "nctaid.x", "warpid", "gtid"} {
		op("S2R R20, %s", sr)
	}
	op("MOV R20, R13")
	op("MOVI R20, -7")
	op("MOVI R20, 0x7FFFFFFFFFFFFFFF")
	emit("    NOP")
	emit("    NANOSLEEP 3")

	// Integer and float binary ops: register form, then immediate forms.
	imms := map[string][]string{
		"IADD": {"-5", "0x7FFFFFFF"}, "IMUL": {"-3", "0x10000"},
		"SHL": {"33", "32", "-1"}, "SHR": {"40", "31"},
		"AND": {"0xF0F0"}, "OR": {"-0x100"}, "XOR": {"-1"},
		"IMIN": {"-2147483648"}, "IMAX": {"0x7FFFFFFF"}, "IABSDIFF": {"-2147483648"},
		"DIV.S32": {"0", "-1", "7"}, "REM.S32": {"0", "-1", "-7"},
		"ADD.S64": {"-1", "0x7FFFFFFF", "0x100000000"},
		"FADD":    {"0x3FC00000", "0x7F800000"}, "FMUL": {"0xBF800000", "0x0"},
		"FMIN": {"0x7FC00000", "0x80000000"}, "FMAX": {"0xFF800000", "0x0"},
		"DIV.F32": {"0x0", "0x80000000", "0x40490FDB"},
	}
	for _, mn := range []string{"IADD", "IMUL", "SHL", "SHR", "AND", "OR", "XOR", "IMIN", "IMAX",
		"IABSDIFF", "DIV.S32", "REM.S32", "ADD.S64", "FADD", "FMUL", "FMIN", "FMAX", "DIV.F32"} {
		op("%s R20, R10, R11", mn)
		op("%s R20, R11, R10", mn)
		for _, imm := range imms[mn] {
			op("%s R20, R10, %s", mn, imm)
		}
	}
	op("ADD.S64 R20, R13, R14")
	op("ADD.S64 R20, R10, R13")
	for _, mn := range []string{"DADD", "DMUL"} {
		op("%s R20, R13, R14", mn)
		op("%s R20, R14, R15", mn)
		op("%s R20, R13, 0x3FF0000000000000", mn)
	}

	// Ternary ops, including an immediate that leaves the third source
	// reading R0.
	for _, mn := range []string{"IADD3", "IMAD", "FFMA", "HMMA"} {
		op("%s R20, R10, R11, R12", mn)
		op("%s R20, R12, R10, R11", mn)
	}
	op("IMAD R20, R10, R11, 7")
	op("DFMA R20, R13, R14, R15")
	op("DFMA R20, R15, R13, R14")

	// Unary ops: SFU, PTX transcendentals and moves, on per-lane
	// operands, on warp-uniform ones (a NaN among them), and with a
	// single lane active.
	unary := []string{"MUFU.RCP", "MUFU.SQRT", "MUFU.LG2", "MUFU.EX2", "MUFU.SIN", "MUFU.COS",
		"RRO", "SQRT.F32", "RSQRT.F32", "SIN.F32", "COS.F32", "EXP.F32", "LOG.F32"}
	for _, mn := range unary {
		op("%s R20, R10", mn)
		op("%s R20, R11", mn)
	}
	for _, v := range []string{"0x40490FDB", "0x7FA00000", "0x80000000", "0x00400000", "0xFF800000"} {
		emit("    MOVI R16, %s", v)
		for _, mn := range unary {
			op("%s R20, R16", mn)
		}
	}
	emit("    ISETP.eq P5, R1, 5")
	for _, mn := range unary {
		emit("    MOVI R20, 0x5A5A5A5A")
		emit("@P5 %s R20, R10", mn)
		store("R20")
	}

	// Comparisons, register and immediate forms.
	for _, c := range []string{"eq", "ne", "lt", "le", "gt", "ge"} {
		setp("ISETP.%s P4, R10, R11", c)
		setp("ISETP.%s P4, R10, -1", c)
		setp("FSETP.%s P4, R10, R11", c)
		setp("FSETP.%s P4, R10, 0x7FC00000", c)
		setp("FSETP.%s P4, R11, 0x80000000", c)
	}
	emit("@!PT MOVI R30, 0x33")
	emit("@PT MOVI R31, 0x44")
	store("R30")
	store("R31")

	// A divergent region: lanes 24 and up skip it; the rest loop a
	// lane-dependent number of times.
	emit("    MOVI R21, 0")
	emit("    AND R22, R1, 3")
	emit("    ISETP.ge P6, R1, 24")
	emit("@P6 BRA skip")
	emit("loop:")
	emit("    FFMA R21, R10, R11, R21")
	emit("    IADD R22, R22, -1")
	emit("    ISETP.ge P5, R22, 0")
	emit("@P5 BRA loop")
	emit("    IMAD R21, R21, R12, R22")
	emit("skip:")
	store("R21")
	store("R22")

	// Shared memory: aligned and unaligned words, a neighbour's word
	// after the barrier, a word no thread wrote, and a word only CTA 0
	// writes.
	emit("    S2R R6, tid.x")
	emit("    SHL R7, R6, 2")
	emit("    S2R R8, ctaid.x")
	emit("    ISETP.eq P0, R8, 0")
	emit("    STS [R7], R10")
	emit("    STS [R7+0x202], R11")
	emit("@P0 STS [R7+0x400], R12")
	emit("@!P2 STS [R7+0x600], R2")
	emit("    BAR")
	emit("    XOR R9, R7, 4")
	for _, addr := range []string{"R9", "R7+0x202", "R7+0x201", "R7+0x203", "R7+0x400", "R7+0x600", "R9+0x600"} {
		emit("    LDS R20, [%s]", addr)
		store("R20")
	}

	// Global memory: unaligned and wrapping addresses, a word no thread
	// wrote, guarded stores.
	emit("    STG [R4+%#x], R10", slot*0x400+1)
	emit("    STG [R4+%#x], R11", slot*0x400+3)
	emit("    STG [R4-0x200000], R12")
	emit("@P2 STG [R4+%#x], R13", slot*0x400+2)
	slot++
	for _, addr := range []string{fmt.Sprintf("R3+%#x", execA+1), fmt.Sprintf("R3+%#x", execA+4), "R4-0x200000"} {
		emit("    LDG R20, [%s]", addr)
		store("R20")
	}

	// Constant, texture and atomic accesses.
	emit("    SHL R9, R1, 1")
	emit("    LDC R20, [R9]")
	store("R20")
	emit("    LDC R20, [R9+3]")
	store("R20")
	emit("    TEX R20, [R3+%#x]", execTex)
	store("R20")
	emit("    TEX R20, [R3+%#x]", execTex+2)
	store("R20")
	emit("    AND R9, R2, 3")
	emit("    SHL R9, R9, 2")
	emit("@!P1 ATOMG R20, [R9+%#x], R10", execAtom)
	store("R20")
	emit("    ATOMG R20, [R9+%#x], R13", execAtom+1)
	store("R20")

	// Destinations aliasing an address or value register.
	emit("    MOV R24, R3")
	emit("    LDG R24, [R24+%#x]", execA)
	store("R24")
	emit("    MOVI R21, 5")
	emit("@!P2 ATOMG R21, [R9+%#x], R21", execAtom+2)
	store("R21")
	emit("    EXIT")
	return s.String()
}

// execMemory returns the exec probe's initial memory image. Only the first
// operand tables (R10, R13) hold NaNs: which payload an operation on two
// NaNs propagates depends on the operand order the compiler picks, so no
// lane may see two. The other tables draw from the entries that are not
// NaNs.
func execMemory() *Memory {
	var u32 []uint32
	for _, v := range execU32 {
		if f := math.Float32frombits(v); f == f {
			u32 = append(u32, v)
		}
	}
	var u64 []uint64
	for _, v := range execU64 {
		if !math.IsNaN(math.Float64frombits(v)) {
			u64 = append(u64, v)
		}
	}
	mem := NewMemory()
	for i := 0; i < 96; i++ {
		a := uint64(i) * 4
		mem.StoreGlobal(execA+a, uint64(execU32[i%len(execU32)]))
		mem.StoreGlobal(execB+a, uint64(u32[(i*7+3)%len(u32)]))
		mem.StoreGlobal(execC+a, uint64(u32[(i*11+5)%len(u32)]))
		mem.StoreGlobal(execDA+a, execU64[i%len(execU64)])
		mem.StoreGlobal(execDB+a, u64[(i*5+1)%len(u64)])
		mem.StoreGlobal(execDC+a, u64[(i*7+4)%len(u64)])
		mem.StoreTexture(execTex+a, uint64(execU32[(i*3+2)%len(execU32)]))
	}
	return mem
}

// words calls f for every nonzero word of a store, in no particular order.
func (s *store) words(f func(addr, v uint64)) {
	for key, p := range s.pages {
		base := key<<(2+pageBits) | key>>62
		for i, v := range p {
			if v != 0 {
				f(base|uint64(i)<<2, v)
			}
		}
	}
}

// globalImage lists the nonzero words of global memory in address order,
// as (address, value) pairs. A word that reads 0 is not listed: a stored
// zero and a word never written read the same.
func globalImage(mem *Memory) [][2]uint64 {
	var img [][2]uint64
	mem.global.words(func(a, v uint64) { img = append(img, [2]uint64{a, v}) })
	sort.Slice(img, func(i, j int) bool { return img[i][0] < img[j][0] })
	return img
}

func digestImage(h hash.Hash, img [][2]uint64) {
	for _, w := range img {
		_ = binary.Write(h, binary.LittleEndian, w)
	}
}

// TestExecGolden pins every value the executor computes: the exec probe
// runs at both ISA levels, and a digest of each final global memory image
// (every nonzero word, in address order) must match. Lowering must not
// change a word. The trace golden pins control flow and addresses only, so
// a wrong result that moves no address is caught here.
func TestExecGolden(t *testing.T) {
	const want = "23b5a04a639ed2cf"
	k, err := isa.Assemble(execProbe())
	if err != nil {
		t.Fatal(err)
	}
	sass, err := isa.ForLevel(k, isa.SASS)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var imgs [2][][2]uint64
	for i, kk := range []*isa.Kernel{k, sass} {
		mem := execMemory()
		if _, err := Run(kk, mem); err != nil {
			t.Fatalf("%v: %v", kk.Level, err)
		}
		imgs[i] = globalImage(mem)
		h.Write([]byte(kk.Level.String()))
		digestImage(h, imgs[i])
	}
	if len(imgs[0]) != len(imgs[1]) {
		t.Errorf("PTX image has %d words, SASS %d", len(imgs[0]), len(imgs[1]))
	} else {
		for i := range imgs[0] {
			if imgs[0][i] != imgs[1][i] {
				t.Errorf("PTX word %#x = %#x, SASS word %#x = %#x",
					imgs[0][i][0], imgs[0][i][1], imgs[1][i][0], imgs[1][i][1])
				break
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)[:8]); got != want {
		t.Errorf("exec image digest %s, want %s (%d words)", got, want, len(imgs[0]))
	}
}
