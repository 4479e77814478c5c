package workloads

import (
	"testing"

	"accelwattch/internal/config"
	"accelwattch/internal/emu"
	"accelwattch/internal/isa"
	"accelwattch/internal/trace"
	"accelwattch/internal/ubench"
)

var tinyScale = ubench.Scale{Iters: 2, Unroll: 1, WarpsPerCTA: 2}

func TestTableFourInventory(t *testing.T) {
	suite, err := ValidationSuite(config.Volta(), tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) != 26 {
		t.Fatalf("Volta suite has %d kernels, Table 4 lists 26", len(suite))
	}
	bySuite := map[string]int{}
	names := map[string]bool{}
	for _, k := range suite {
		bySuite[k.Suite]++
		if names[k.Name] {
			t.Errorf("duplicate kernel %s", k.Name)
		}
		names[k.Name] = true
		if k.Coverage <= 0 || k.Coverage > 1 {
			t.Errorf("%s: coverage %v out of (0,1]", k.Name, k.Coverage)
		}
	}
	if bySuite[SuiteSDK] != 12 || bySuite[SuiteRodinia] != 8 ||
		bySuite[SuiteParboil] != 3 || bySuite[SuiteCUTLASS] != 3 {
		t.Errorf("suite distribution: %v (Table 4: 12 SDK, 8 Rodinia, 3 Parboil, 3 CUTLASS)", bySuite)
	}
}

func TestPaperExclusions(t *testing.T) {
	suite := MustValidationSuite(config.Volta(), tinyScale)
	var ptxExcluded, hwExcluded []string
	for _, k := range suite {
		if !k.ForVariantPTX() {
			ptxExcluded = append(ptxExcluded, k.Name)
		}
		if !k.ForVariantHW() {
			hwExcluded = append(hwExcluded, k.Name)
		}
	}
	// CUTLASS (3), hotspot, pathfinder do not compile for PTX mode.
	if len(ptxExcluded) != 5 {
		t.Errorf("PTX exclusions: %v, want 5 kernels", ptxExcluded)
	}
	// Nsight fails only on pathfinder.
	if len(hwExcluded) != 1 || hwExcluded[0] != "pfind_K1" {
		t.Errorf("HW exclusions: %v, want [pfind_K1]", hwExcluded)
	}
}

func TestPascalSuiteDropsTensor(t *testing.T) {
	suite, err := ValidationSuite(config.Pascal(), tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) != 22 {
		t.Fatalf("Pascal suite has %d kernels, want 22 (no tensor workloads)", len(suite))
	}
	for _, k := range suite {
		if k.UsesTensor {
			t.Errorf("%s uses tensor cores on Pascal", k.Name)
		}
	}
}

func TestAllKernelsExecuteBothLevels(t *testing.T) {
	suite := MustValidationSuite(config.Volta(), tinyScale)
	for _, k := range suite {
		mem := emu.NewMemory()
		if k.Setup != nil {
			k.Setup(mem)
		}
		kt, err := emu.Run(k.Kernel, mem)
		if err != nil {
			t.Errorf("%s (PTX): %v", k.Name, err)
			continue
		}
		if trace.Summarize(kt).DynInstrs == 0 {
			t.Errorf("%s: empty trace", k.Name)
		}
		sass := isa.MustLower(k.Kernel)
		mem2 := emu.NewMemory()
		if k.Setup != nil {
			k.Setup(mem2)
		}
		if _, err := emu.Run(sass, mem2); err != nil {
			t.Errorf("%s (SASS): %v", k.Name, err)
		}
	}
}

func TestKernelCharacteristics(t *testing.T) {
	suite := MustValidationSuite(config.Volta(), tinyScale)
	byName := map[string]*trace.Stats{}
	for i := range suite {
		k := &suite[i]
		mem := emu.NewMemory()
		if k.Setup != nil {
			k.Setup(mem)
		}
		kt, err := emu.Run(isa.MustLower(k.Kernel), mem)
		if err != nil {
			t.Fatal(err)
		}
		s := trace.Summarize(kt)
		byName[k.Name] = &s
	}
	// Tensor GEMMs use tensor cores.
	for _, name := range []string{"tensor_K1", "cutlass_K1", "cutlass_K2", "cutlass_K3"} {
		if byName[name].UnitCounts[isa.UnitTensor] == 0 {
			t.Errorf("%s executes no tensor ops", name)
		}
	}
	// mri-q is SFU heavy; sgemm is FP32 heavy; sad is integer heavy.
	if byName["mriq_K1"].UnitCounts[isa.UnitSFU] == 0 {
		t.Error("mriq_K1 executes no SFU ops")
	}
	fp := byName["sgemm_K1"].UnitCounts[isa.UnitFPU]
	if fp == 0 {
		t.Error("sgemm_K1 executes no FP32 ops")
	}
	if byName["sad_K1"].OpCounts[isa.OpIABSDIFF] == 0 {
		t.Error("sad_K1 executes no IABSDIFF")
	}
	// histogram uses atomics; b+tree chases pointers with divergence.
	if byName["histo_K1"].OpCounts[isa.OpATOMG] == 0 {
		t.Error("histo_K1 executes no atomics")
	}
	if byName["b+tree_K1"].AvgLanes >= 32 {
		t.Error("b+tree_K1 shows no divergence")
	}
	// Shared-memory kernels hit shared space.
	for _, name := range []string{"walsh_K1", "bprop_K1", "hspot_K1", "sgemm_K1", "pfind_K1"} {
		found := false
		for i, n := range byName[name].OpCounts {
			if op := isa.Op(i); (op == isa.OpLDS || op == isa.OpSTS) && n > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("%s never touches shared memory", name)
		}
	}
}

func TestDeepBenchSuiteShape(t *testing.T) {
	dbs := DeepBenchSuite(config.Volta(), tinyScale)
	if len(dbs) != 6 {
		t.Fatalf("DeepBench case study uses 6 benchmarks, got %d", len(dbs))
	}
	for _, db := range dbs {
		if len(db.Kernels) < 8 {
			t.Errorf("%s has only %d kernels; DeepBench workloads issue many", db.Name, len(db.Kernels))
		}
		covered := map[int]bool{}
		for _, g := range db.Groups {
			if len(g) == 0 {
				t.Errorf("%s has an empty concurrent group", db.Name)
			}
			for _, i := range g {
				covered[i] = true
			}
		}
		if len(covered) != len(db.Kernels) {
			t.Errorf("%s: schedule covers %d of %d kernels", db.Name, len(covered), len(db.Kernels))
		}
		// DeepBench kernels occupy only ~12 SMs.
		for i := range db.Kernels {
			if g := db.Kernels[i].Kernel.Grid.X; g > 12 {
				t.Errorf("%s kernel %d uses %d CTAs, want <= 12", db.Name, i, g)
			}
		}
	}
}
