package ubench

import (
	"fmt"

	"accelwattch/internal/config"
	"accelwattch/internal/isa"
)

// Suite generates the 102 tuning microbenchmarks of Table 2 for an
// architecture. The inventory is checked against the paper's per-category
// counts before returning.
func Suite(arch *config.Arch, sc Scale) ([]Bench, error) {
	specs := suiteSpecs(arch)
	out := make([]Bench, len(specs))
	for i, o := range specs {
		out[i] = gen(arch, sc, o)
	}
	if err := checkSuiteCounts(out); err != nil {
		return nil, err
	}
	return out, nil
}

// suiteSpecs lists the generator options of every Table 2 microbenchmark.
func suiteSpecs(arch *config.Arch) []genOpts {
	var out []genOpts
	add := func(o genOpts) { out = append(out, o) }

	// --- Active/Idle SMs (12): occupancy ladders used by the idle-SM
	// model of Section 4.6 (full 32-lane warps, varying SM counts).
	for _, sms := range []int{10, 20, 30, 40, 50, 60, 70, 80} {
		n := sms * arch.NumSMs / 80 // scale the ladder to the chip
		if n < 1 {
			n = 1
		}
		add(genOpts{name: namef("occ_intmul_%02dsm", sms), cat: CatActiveIdleSM,
			grid: n, body: []isa.Op{isa.OpIMUL}})
	}
	for _, sms := range []int{20, 40, 60, 80} {
		n := sms * arch.NumSMs / 80
		if n < 1 {
			n = 1
		}
		add(genOpts{name: namef("occ_ffma_%02dsm", sms), cat: CatActiveIdleSM,
			grid: n, body: []isa.Op{isa.OpFFMA}})
	}

	// --- INT32 core (9).
	add(genOpts{name: "int_add", cat: CatINT32, body: []isa.Op{isa.OpIADD}})
	add(genOpts{name: "int_mul", cat: CatINT32, body: []isa.Op{isa.OpIMUL}})
	add(genOpts{name: "int_mad", cat: CatINT32, body: []isa.Op{isa.OpIMAD}})
	add(genOpts{name: "int_addmul", cat: CatINT32, body: []isa.Op{isa.OpIADD, isa.OpIMUL}})
	add(genOpts{name: "int_shift", cat: CatINT32, body: []isa.Op{isa.OpSHL, isa.OpSHR}})
	add(genOpts{name: "int_logic", cat: CatINT32, body: []isa.Op{isa.OpAND, isa.OpOR, isa.OpXOR}})
	add(genOpts{name: "int_minmax", cat: CatINT32, body: []isa.Op{isa.OpIMIN, isa.OpIMAX}})
	add(genOpts{name: "int_absdiff", cat: CatINT32, body: []isa.Op{isa.OpIABSDIFF}})
	add(genOpts{name: "int_add_ilp1", cat: CatINT32, body: []isa.Op{isa.OpIADD}, ilp: 1})

	// --- FP32 core (8).
	add(genOpts{name: "fp_add", cat: CatFP32, body: []isa.Op{isa.OpFADD}})
	add(genOpts{name: "fp_mul", cat: CatFP32, body: []isa.Op{isa.OpFMUL}})
	add(genOpts{name: "fp_fma", cat: CatFP32, body: []isa.Op{isa.OpFFMA}})
	add(genOpts{name: "fp_addmul", cat: CatFP32, body: []isa.Op{isa.OpFADD, isa.OpFMUL}})
	add(genOpts{name: "fp_minmax", cat: CatFP32, body: []isa.Op{isa.OpFMIN, isa.OpFMAX}})
	add(genOpts{name: "fp_fma_ilp2", cat: CatFP32, body: []isa.Op{isa.OpFFMA}, ilp: 2})
	add(genOpts{name: "fp_div", cat: CatFP32, body: []isa.Op{isa.OpDIVF32}})
	add(genOpts{name: "fp_mixed", cat: CatFP32, body: []isa.Op{isa.OpFADD, isa.OpFMUL, isa.OpFFMA}})

	// --- FP64 core (8).
	add(genOpts{name: "dp_add", cat: CatFP64, body: []isa.Op{isa.OpDADD}})
	add(genOpts{name: "dp_mul", cat: CatFP64, body: []isa.Op{isa.OpDMUL}})
	add(genOpts{name: "dp_fma", cat: CatFP64, body: []isa.Op{isa.OpDFMA}})
	add(genOpts{name: "dp_addmul", cat: CatFP64, body: []isa.Op{isa.OpDADD, isa.OpDMUL}})
	add(genOpts{name: "dp_fma_ilp2", cat: CatFP64, body: []isa.Op{isa.OpDFMA}, ilp: 2})
	add(genOpts{name: "dp_int", cat: CatFP64, body: []isa.Op{isa.OpDFMA, isa.OpIADD}})
	add(genOpts{name: "dp_fp", cat: CatFP64, body: []isa.Op{isa.OpDFMA, isa.OpFFMA}})
	add(genOpts{name: "dp_mixed", cat: CatFP64, body: []isa.Op{isa.OpDADD, isa.OpDMUL, isa.OpDFMA}})

	// --- SFU (9).
	add(genOpts{name: "sfu_rcp", cat: CatSFU, body: []isa.Op{isa.OpMUFURCP}})
	add(genOpts{name: "sfu_sqrt", cat: CatSFU, body: []isa.Op{isa.OpMUFUSQRT}})
	add(genOpts{name: "sfu_rsqrt", cat: CatSFU, body: []isa.Op{isa.OpRSQRTF32}})
	add(genOpts{name: "sfu_lg2", cat: CatSFU, body: []isa.Op{isa.OpMUFULG2}})
	add(genOpts{name: "sfu_ex2", cat: CatSFU, body: []isa.Op{isa.OpMUFUEX2}})
	add(genOpts{name: "sfu_sin", cat: CatSFU, body: []isa.Op{isa.OpSINF32}})
	add(genOpts{name: "sfu_cos", cat: CatSFU, body: []isa.Op{isa.OpCOSF32}})
	add(genOpts{name: "sfu_exp", cat: CatSFU, body: []isa.Op{isa.OpEXPF32}})
	add(genOpts{name: "sfu_log", cat: CatSFU, body: []isa.Op{isa.OpLOGF32}})

	// --- Texture unit (7).
	add(genOpts{name: "tex_stream", cat: CatTexture, body: []isa.Op{isa.OpIADD},
		mem: memTex, memOps: 2, strideMult: 1})
	add(genOpts{name: "tex_resident", cat: CatTexture, body: []isa.Op{isa.OpIADD},
		mem: memTex, memOps: 2, strideMult: 0})
	add(genOpts{name: "tex_strided", cat: CatTexture, body: []isa.Op{isa.OpIADD},
		mem: memTex, memOps: 1, strideMult: 8})
	add(genOpts{name: "tex_int", cat: CatTexture, body: []isa.Op{isa.OpIMAD},
		mem: memTex, memOps: 1, strideMult: 1})
	add(genOpts{name: "tex_fp", cat: CatTexture, body: []isa.Op{isa.OpFFMA},
		mem: memTex, memOps: 1, strideMult: 1})
	add(genOpts{name: "tex_divergent", cat: CatTexture, body: []isa.Op{isa.OpIADD},
		mem: memTex, memOps: 1, strideMult: 1, y: 16})
	add(genOpts{name: "tex_heavy", cat: CatTexture, body: []isa.Op{isa.OpIADD},
		mem: memTex, memOps: 3, strideMult: 1})

	// --- Register file (1): maximum-operand traffic.
	add(genOpts{name: "rf_fma_mad", cat: CatRegFile,
		body: []isa.Op{isa.OpFFMA, isa.OpIMAD}, ilp: 8})

	// --- Data caches + shared memory + NoC (11).
	add(genOpts{name: "l1_chase", cat: CatCaches, body: []isa.Op{isa.OpIADD},
		mem: memChase, memOps: 2, chaseBytes: 48 << 10})
	add(genOpts{name: "l1_stream_small", cat: CatCaches, body: []isa.Op{isa.OpIADD},
		mem: memChase, memOps: 1, chaseBytes: 16 << 10})
	add(genOpts{name: "l2_chase", cat: CatCaches, body: []isa.Op{isa.OpIADD},
		mem: memChase, memOps: 2, chaseBytes: 2 << 20})
	add(genOpts{name: "l2_stream", cat: CatCaches, body: []isa.Op{isa.OpIADD},
		mem: memChase, memOps: 1, chaseBytes: 3 << 20})
	add(genOpts{name: "shared_ldst", cat: CatCaches, body: []isa.Op{isa.OpIADD},
		mem: memShared, memOps: 2})
	add(genOpts{name: "shared_conflict", cat: CatCaches, body: []isa.Op{isa.OpIADD},
		mem: memSharedConflict, memOps: 1})
	add(genOpts{name: "const_ldc", cat: CatCaches, body: []isa.Op{isa.OpIADD},
		mem: memConst, memOps: 2})
	add(genOpts{name: "l1_write", cat: CatCaches, body: []isa.Op{isa.OpIADD},
		mem: memStreamWrite, memOps: 1, strideMult: 0})
	add(genOpts{name: "l2_mixed_int", cat: CatCaches, body: []isa.Op{isa.OpIMAD},
		mem: memChase, memOps: 1, chaseBytes: 1 << 20})
	add(genOpts{name: "shared_fp", cat: CatCaches, body: []isa.Op{isa.OpFFMA},
		mem: memShared, memOps: 1})
	add(genOpts{name: "atomic_hist", cat: CatCaches, body: []isa.Op{isa.OpIADD},
		mem: memAtomic, memOps: 1})

	// --- DRAM + memory controller (2).
	add(genOpts{name: "dram_stream_read", cat: CatDRAM, body: []isa.Op{isa.OpIADD},
		mem: memStream, memOps: 2, strideMult: 32})
	add(genOpts{name: "dram_stream_write", cat: CatDRAM, body: []isa.Op{isa.OpIADD},
		mem: memStreamWrite, memOps: 2, strideMult: 32})

	// --- Tensor core (6).
	add(genOpts{name: "tensor_hmma", cat: CatTensor, body: []isa.Op{isa.OpHMMA}})
	add(genOpts{name: "tensor_hmma_ilp2", cat: CatTensor, body: []isa.Op{isa.OpHMMA}, ilp: 2})
	add(genOpts{name: "tensor_int", cat: CatTensor, body: []isa.Op{isa.OpHMMA, isa.OpIADD}})
	add(genOpts{name: "tensor_fp", cat: CatTensor, body: []isa.Op{isa.OpHMMA, isa.OpFFMA}})
	add(genOpts{name: "tensor_shared", cat: CatTensor, body: []isa.Op{isa.OpHMMA},
		mem: memShared, memOps: 1})
	add(genOpts{name: "tensor_heavy", cat: CatTensor, body: []isa.Op{isa.OpHMMA}, ilp: 4})

	// --- Mix (29): instruction-mix combinations at varying divergence and
	// ILP (Section 4.5's nine categories appear across these).
	for _, y := range []int{32, 16, 8} {
		add(genOpts{name: namef("mix_int_fp_y%02d", y), cat: CatMix, y: y,
			body: []isa.Op{isa.OpIADD, isa.OpFFMA}})
		add(genOpts{name: namef("mix_int_fp_sfu_y%02d", y), cat: CatMix, y: y,
			body: []isa.Op{isa.OpIADD, isa.OpFFMA, isa.OpMUFUSQRT}})
		add(genOpts{name: namef("mix_int_fp_dp_y%02d", y), cat: CatMix, y: y,
			body: []isa.Op{isa.OpIADD, isa.OpFFMA, isa.OpDFMA}})
	}
	add(genOpts{name: "mix_int_mem_l1", cat: CatMix, body: []isa.Op{isa.OpIADD},
		mem: memChase, memOps: 1, chaseBytes: 32 << 10})
	add(genOpts{name: "mix_int_mem_dram", cat: CatMix, body: []isa.Op{isa.OpIADD, isa.OpIMUL},
		mem: memStream, memOps: 1, strideMult: 32})
	add(genOpts{name: "mix_fp_mem_l1", cat: CatMix, body: []isa.Op{isa.OpFFMA},
		mem: memChase, memOps: 1, chaseBytes: 32 << 10})
	add(genOpts{name: "mix_fp_mem_dram", cat: CatMix, body: []isa.Op{isa.OpFFMA},
		mem: memStream, memOps: 1, strideMult: 32})
	add(genOpts{name: "mix_int_fp_tex", cat: CatMix,
		body: []isa.Op{isa.OpIADD, isa.OpFFMA}, mem: memTex, memOps: 1, strideMult: 1})
	add(genOpts{name: "mix_int_fp_tensor", cat: CatMix,
		body: []isa.Op{isa.OpIADD, isa.OpFFMA, isa.OpHMMA}})
	add(genOpts{name: "mix_light_nanosleep", cat: CatMix,
		body: []isa.Op{isa.OpNANOSLEEP}, ilp: 1, block: 32})
	add(genOpts{name: "mix_light_int", cat: CatMix,
		body: []isa.Op{isa.OpNANOSLEEP, isa.OpIADD}, ilp: 2, block: 32})
	add(genOpts{name: "mix_int_fp_ilp1", cat: CatMix, ilp: 2,
		body: []isa.Op{isa.OpIADD, isa.OpFFMA}})
	add(genOpts{name: "mix_int_fp_ilp8", cat: CatMix, ilp: 8,
		body: []isa.Op{isa.OpIADD, isa.OpFFMA}})
	add(genOpts{name: "mix_int_heavy_mem", cat: CatMix, body: []isa.Op{isa.OpIMAD},
		mem: memStream, memOps: 2, strideMult: 16})
	add(genOpts{name: "mix_fp_heavy_mem", cat: CatMix, body: []isa.Op{isa.OpFFMA},
		mem: memStream, memOps: 2, strideMult: 16})
	add(genOpts{name: "mix_intmul_fp", cat: CatMix, body: []isa.Op{isa.OpIMUL, isa.OpFMUL}})
	add(genOpts{name: "mix_intmul_dp", cat: CatMix, body: []isa.Op{isa.OpIMUL, isa.OpDMUL}})
	add(genOpts{name: "mix_sfu_mem", cat: CatMix, body: []isa.Op{isa.OpMUFUEX2},
		mem: memChase, memOps: 1, chaseBytes: 1 << 20})
	add(genOpts{name: "mix_dp_mem", cat: CatMix, body: []isa.Op{isa.OpDFMA},
		mem: memChase, memOps: 1, chaseBytes: 1 << 20})
	add(genOpts{name: "mix_int_fp_shared", cat: CatMix,
		body: []isa.Op{isa.OpIADD, isa.OpFFMA}, mem: memShared, memOps: 1})
	add(genOpts{name: "mix_int_fp_const", cat: CatMix,
		body: []isa.Op{isa.OpIADD, isa.OpFFMA}, mem: memConst, memOps: 1})
	add(genOpts{name: "mix_int_atomic", cat: CatMix, body: []isa.Op{isa.OpIADD},
		mem: memAtomic, memOps: 1, y: 16})
	add(genOpts{name: "mix_fp_tex", cat: CatMix, body: []isa.Op{isa.OpFMUL},
		mem: memTex, memOps: 1, strideMult: 2})

	return out
}

// MustSuite is Suite for stock architectures.
func MustSuite(arch *config.Arch, sc Scale) []Bench {
	s, err := Suite(arch, sc)
	if err != nil {
		panic(err)
	}
	return s
}

func namef(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}
