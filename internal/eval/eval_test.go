package eval

import (
	"math"
	"sync"
	"testing"

	"accelwattch/internal/config"
	"accelwattch/internal/core"
	"accelwattch/internal/faults"
	"accelwattch/internal/silicon"
	"accelwattch/internal/trace"
	"accelwattch/internal/tune"
	"accelwattch/internal/ubench"
	"accelwattch/internal/workloads"
)

func TestGroupOfCoversAllComponents(t *testing.T) {
	seen := map[Group]bool{}
	for c := 0; c < core.NumComponents; c++ {
		g := groupOf(core.Component(c))
		if g < 0 || g >= NumGroups {
			t.Errorf("component %v maps to invalid group", core.Component(c))
		}
		seen[g] = true
	}
	// Every Figure 9 legend entry except Others must be reachable.
	for g := Group(0); g < NumGroups; g++ {
		if !seen[g] {
			t.Errorf("no component maps to group %v", g)
		}
	}
}

func TestGroupBreakdown(t *testing.T) {
	var b core.Breakdown
	b.Watts[core.CompRF] = 10
	b.Watts[core.CompALU] = 3
	b.Watts[core.CompINTMUL] = 2
	b.Watts[core.CompConst] = 30
	b.Watts[core.CompL1D] = 4
	b.Watts[core.CompSHMEM] = 1
	g := GroupBreakdown(b)
	if g.Watts[GroupRegFile] != 10 || g.Watts[GroupALU] != 5 || g.Watts[GroupL1DShared] != 5 {
		t.Errorf("grouping wrong: %+v", g)
	}
	if math.Abs(g.Total()-b.Total()) > 1e-12 {
		t.Error("grouping must preserve total power")
	}
	if math.Abs(g.Share(GroupConst)-0.6) > 1e-12 {
		t.Errorf("const share %v", g.Share(GroupConst))
	}
}

func TestAverageBreakdownNormalises(t *testing.T) {
	mk := func(constW, rfW float64) KernelResult {
		var b core.Breakdown
		b.Watts[core.CompConst] = constW
		b.Watts[core.CompRF] = rfW
		return KernelResult{Breakdown: b}
	}
	// Two kernels with very different totals but identical shares.
	avg := AverageBreakdown([]KernelResult{mk(30, 70), mk(3, 7)})
	if math.Abs(avg.Share(GroupConst)-0.3) > 1e-9 {
		t.Errorf("const share %v, want 0.3 (per-kernel normalisation)", avg.Share(GroupConst))
	}
	if math.Abs(avg.Total()-1) > 1e-9 {
		t.Errorf("normalised total %v, want 1", avg.Total())
	}
	empty := AverageBreakdown(nil)
	if empty.Total() != 0 {
		t.Error("empty average should be zero")
	}
}

func TestRelativePower(t *testing.T) {
	a := &ValidationResult{Kernels: []KernelResult{
		{Name: "k1", MeasuredW: 100, EstimatedW: 100},
		{Name: "k2", MeasuredW: 200, EstimatedW: 210},
		{Name: "onlyA", MeasuredW: 50, EstimatedW: 50},
	}}
	b := &ValidationResult{Kernels: []KernelResult{
		{Name: "k1", MeasuredW: 80, EstimatedW: 75},   // -20% measured, -25% modeled
		{Name: "k2", MeasuredW: 240, EstimatedW: 231}, // +20% measured, +10% modeled
	}}
	rp := RelativePower("b/a", a, b)
	if len(rp.Rows) != 2 {
		t.Fatalf("rows %d, want 2 (unmatched kernels skipped)", len(rp.Rows))
	}
	if math.Abs(rp.AvgMeasuredPct-0) > 1e-9 {
		t.Errorf("avg measured %v, want 0", rp.AvgMeasuredPct)
	}
	if math.Abs(rp.AvgModeledPct-(-7.5)) > 1e-9 {
		t.Errorf("avg modeled %v, want -7.5", rp.AvgModeledPct)
	}
	if math.Abs(rp.AvgErrPct-7.5) > 1e-9 {
		t.Errorf("avg err %v", rp.AvgErrPct)
	}
	if rp.SameDirectionFrac != 1 {
		t.Errorf("same direction %v, want 1 (signs agree)", rp.SameDirectionFrac)
	}
}

func TestKernelResultRelErr(t *testing.T) {
	k := KernelResult{MeasuredW: 100, EstimatedW: 110}
	if k.RelErrPct() != 10 {
		t.Errorf("RelErrPct = %v", k.RelErrPct())
	}
}

func TestInSuiteFiltering(t *testing.T) {
	k := workloads.Kernel{Name: "x", PTXCompatible: false, HWProfilable: false}
	if inSuite(&k, tune.PTXSIM) || inSuite(&k, tune.HW) || inSuite(&k, tune.HYBRID) {
		t.Error("exclusions not honoured")
	}
	if !inSuite(&k, tune.SASSSIM) {
		t.Error("SASS SIM suite must include every kernel")
	}
}

func TestGroupNames(t *testing.T) {
	for g := Group(0); g < NumGroups; g++ {
		if g.String() == "?" {
			t.Errorf("group %d unnamed", g)
		}
	}
	if Group(99).String() != "?" {
		t.Error("out-of-range group should print ?")
	}
}

// countingMeter wraps the device and counts Run calls per kernel name, to
// prove the artifact store shares silicon measurements across variants.
type countingMeter struct {
	faults.Meter
	mu   sync.Mutex
	runs map[string]int
}

func (c *countingMeter) Run(kts ...*trace.KernelTrace) (*silicon.Measurement, error) {
	c.mu.Lock()
	for _, kt := range kts {
		c.runs[kt.Kernel.Name]++
	}
	c.mu.Unlock()
	return c.Meter.Run(kts...)
}

// TestValidateAllMeasuresEachKernelOnce asserts the satellite requirement
// that the four-variant validation measures each kernel on silicon exactly
// once: the measurement is keyed by (workload, frequency), not by variant.
func TestValidateAllMeasuresEachKernelOnce(t *testing.T) {
	arch := config.Volta()
	sc := ubench.Scale{Iters: 2, Unroll: 1, WarpsPerCTA: 2}
	tb, err := tune.NewTestbench(arch, sc)
	if err != nil {
		t.Fatal(err)
	}
	cm := &countingMeter{Meter: tb.Device, runs: map[string]int{}}
	tb.UseMeter(cm, tune.DefaultMeterPolicy())

	model := &core.Model{
		Arch:         arch,
		BaseEnergyPJ: core.InitialEnergiesPJ(),
		ConstW:       30,
		IdleSMW:      0.03,
		RefSMs:       arch.NumSMs,
	}
	for i := range model.Scale {
		model.Scale[i] = 1
	}
	tuned := &tune.Result{}
	for _, v := range tune.Variants() {
		tuned.Models[v] = model
	}
	suite, err := workloads.ValidationSuite(arch, sc)
	if err != nil {
		t.Fatal(err)
	}
	all, err := ValidateAllExec(tb.Sequential(), tuned, suite)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != int(tune.NumVariants) {
		t.Fatalf("got %d variants, want %d", len(all), tune.NumVariants)
	}
	if len(cm.runs) == 0 {
		t.Fatal("counting meter saw no measurements")
	}
	for name, n := range cm.runs {
		if n != 1 {
			t.Errorf("kernel %s measured %d times across variants, want exactly 1", name, n)
		}
	}
}

func TestRelErrPctNaNOnZeroMeasurement(t *testing.T) {
	k := KernelResult{MeasuredW: 0, EstimatedW: 50}
	if got := k.RelErrPct(); !math.IsNaN(got) {
		t.Fatalf("RelErrPct with zero measurement = %v, want NaN", got)
	}
}
