package tune

import (
	"math"
	"sync"
	"testing"

	"accelwattch/internal/config"
	"accelwattch/internal/core"
	"accelwattch/internal/isa"
	"accelwattch/internal/trace"
	"accelwattch/internal/trace/tracetest"
	"accelwattch/internal/ubench"
)

// The tuning flow is expensive, so the package shares one tuned result.
var (
	tuneOnce sync.Once
	tunedTB  *Testbench
	tunedRes *Result
	tunedErr error
)

func sharedTuned(t *testing.T) (*Testbench, *Result) {
	t.Helper()
	tuneOnce.Do(func() {
		tunedTB, tunedErr = NewTestbench(config.Volta(), ubench.Quick)
		if tunedErr != nil {
			return
		}
		tunedRes, tunedErr = tunedTB.Sequential().Tune(tunedTB.DefaultOptions())
	})
	if tunedErr != nil {
		t.Fatal(tunedErr)
	}
	return tunedTB, tunedRes
}

func TestConstPowerEstimate(t *testing.T) {
	if testing.Short() {
		t.Skip("full tuning flow")
	}
	_, res := sharedTuned(t)
	cp := res.ConstPower
	// The GV100 ground truth is 32.5 W; Section 4.2 recovers it from
	// cubic fits.
	if cp.ConstW < 27 || cp.ConstW > 42 {
		t.Errorf("constant power %.2f W, true value 32.5 W", cp.ConstW)
	}
	// The legacy linear methodology must under-estimate it.
	if cp.LegacyConstW >= cp.ConstW {
		t.Errorf("legacy linear estimate %.2f should fall below the Eq.(3) estimate %.2f",
			cp.LegacyConstW, cp.ConstW)
	}
	if len(cp.Curves) != 5 {
		t.Fatalf("Figure 2 has 5 curves, got %d", len(cp.Curves))
	}
	for _, c := range cp.Curves {
		if c.FitMAPE > 2 {
			t.Errorf("%s: Eq.(3) fit MAPE %.2f%% (paper: ~1%%)", c.Name, c.FitMAPE)
		}
		if c.Fit.Beta < 0 || c.Fit.Tau < 0 {
			t.Errorf("%s: negative fitted terms %+v", c.Name, c.Fit)
		}
	}
}

func TestDivergenceModelSelection(t *testing.T) {
	if testing.Short() {
		t.Skip("full tuning flow")
	}
	_, res := sharedTuned(t)
	byMix := map[core.MixCategory]DivergenceFit{}
	for _, f := range res.DivFits {
		byMix[f.Mix] = f
	}
	// Section 4.5: single-unit integer mixes follow the half-warp
	// (sawtooth) model; multi-unit mixes follow the linear model.
	for _, mix := range []core.MixCategory{core.MixIntAdd, core.MixIntMul, core.MixInt} {
		if !byMix[mix].HalfWarp {
			t.Errorf("%v should select the half-warp model (Figure 4a)", mix)
		}
	}
	for _, mix := range []core.MixCategory{core.MixIntFP, core.MixIntFPSFU, core.MixIntFPDP} {
		if byMix[mix].HalfWarp {
			t.Errorf("%v should select the linear model (Figures 4b/4c)", mix)
		}
	}
	for _, f := range res.DivFits {
		if f.Static32LanesW < f.StaticFirstLaneW {
			t.Errorf("%v: 32-lane static below first-lane static", f.Mix)
		}
		if f.StaticFirstLaneW <= 0 {
			t.Errorf("%v: non-positive first-lane static", f.Mix)
		}
	}
}

func TestIdleSMEstimate(t *testing.T) {
	if testing.Short() {
		t.Skip("full tuning flow")
	}
	_, res := sharedTuned(t)
	if res.IdleSM.PerIdleSMW <= 0 || res.IdleSM.PerIdleSMW > 1 {
		t.Errorf("idle-SM power %.3f W implausible", res.IdleSM.PerIdleSMW)
	}
	if len(res.IdleSM.Estimates) < 3 {
		t.Errorf("too few idle-SM observations: %d", len(res.IdleSM.Estimates))
	}
}

func TestFermiStartWins(t *testing.T) {
	if testing.Short() {
		t.Skip("full tuning flow")
	}
	_, res := sharedTuned(t)
	// Section 5.4: the model from the Fermi starting point beats the
	// all-ones start for the simulator-driven variants.
	for _, v := range []Variant{SASSSIM, PTXSIM} {
		if res.BestFits[v].Start != StartFermi {
			t.Errorf("%v: adopted start %v, paper adopts the Fermi start", v, res.BestFits[v].Start)
		}
		if res.BestFits[v].TrainMAPE >= res.OtherFits[v].TrainMAPE {
			t.Errorf("%v: best start not better (%.2f vs %.2f)",
				v, res.BestFits[v].TrainMAPE, res.OtherFits[v].TrainMAPE)
		}
	}
}

func TestTunedModelsSane(t *testing.T) {
	if testing.Short() {
		t.Skip("full tuning flow")
	}
	_, res := sharedTuned(t)
	for _, v := range Variants() {
		m := res.Model(v)
		if err := m.Validate(); err != nil {
			t.Errorf("%v: %v", v, err)
		}
		if res.BestFits[v].TrainMAPE > 10 {
			t.Errorf("%v: training MAPE %.2f%% too high", v, res.BestFits[v].TrainMAPE)
		}
		// Eq. (14) ordering constraints hold on effective energies.
		for _, oc := range core.OrderConstraints {
			ei := m.EffectiveEnergyPJ(oc[0])
			ej := m.EffectiveEnergyPJ(oc[1])
			if ei > ej*(1+1e-6) {
				t.Errorf("%v: constraint %v <= %v violated (%.2f > %.2f)",
					v, oc[0], oc[1], ei, ej)
			}
		}
	}
}

func TestHWActivityCounterGaps(t *testing.T) {
	if testing.Short() {
		t.Skip("runs device profiles")
	}
	tb, _ := sharedTuned(t)
	b := ubench.DivergenceBench(tb.Arch, tb.Scale, core.MixIntFP, 32)
	w := FromBench(b)
	aHW, err := tb.Activity(w, HW)
	if err != nil {
		t.Fatal(err)
	}
	// Volta exposes no register-file or L1i counters (Table 1 shading).
	if aHW.Counts[core.CompRF] != 0 || aHW.Counts[core.CompICACHE] != 0 {
		t.Error("HW activity must have zero RF and L1i counts")
	}
	aSim, err := tb.Activity(w, SASSSIM)
	if err != nil {
		t.Fatal(err)
	}
	if aSim.Counts[core.CompRF] == 0 {
		t.Error("simulator-driven activity must include RF counts")
	}
	// HYBRID replaces only L2+NoC with the simulator's counters.
	aHy, err := tb.Activity(w, HYBRID)
	if err != nil {
		t.Fatal(err)
	}
	if aHy.Counts[core.CompL2NOC] != aSim.Counts[core.CompL2NOC] {
		t.Error("HYBRID must take L2+NoC activity from the simulator")
	}
	if aHy.Counts[core.CompL1D] != aHW.Counts[core.CompL1D] {
		t.Error("HYBRID must keep the hardware L1 counters")
	}
}

func TestMeasurementCaching(t *testing.T) {
	tb, err := NewTestbench(config.Volta(), ubench.Scale{Iters: 2, Unroll: 1, WarpsPerCTA: 1})
	if err != nil {
		t.Fatal(err)
	}
	b := ubench.OccupancyBench(tb.Arch, tb.Scale, 4)
	w := FromBench(b)
	m1, err := tb.Measure(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := tb.Measure(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("measurements at the same clock should be cached")
	}
	m3, err := tb.Measure(w, 800)
	if err != nil {
		t.Fatal(err)
	}
	if m3 == m1 {
		t.Error("different clocks must re-measure")
	}
	if math.Abs(m3.AvgPowerW-m1.AvgPowerW) < 1e-9 {
		t.Error("clock change should change power")
	}
	// Trace cache: PTX and SASS are distinct entries.
	tp, err := tb.Trace(w, isa.PTX)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := tb.Trace(w, isa.SASS)
	if err != nil {
		t.Fatal(err)
	}
	if tp == ts {
		t.Error("PTX and SASS traces must differ")
	}
}

func TestVariantNames(t *testing.T) {
	want := map[Variant]string{SASSSIM: "SASS_SIM", PTXSIM: "PTX_SIM", HW: "HW", HYBRID: "HYBRID"}
	for v, n := range want {
		if v.String() != n {
			t.Errorf("%d: %q", v, v.String())
		}
	}
	if len(Variants()) != int(NumVariants) {
		t.Error("Variants() incomplete")
	}
}

func TestTemperatureCoefficient(t *testing.T) {
	if testing.Short() {
		t.Skip("full tuning flow")
	}
	_, res := sharedTuned(t)
	// The golden device leaks with coefficient 0.016/C; the closed-form
	// three-point fit should recover it closely.
	if res.Temperature == nil {
		t.Fatal("temperature fit missing")
	}
	c := res.Temperature.Coeff
	if c < 0.010 || c > 0.022 {
		t.Errorf("temperature coefficient %.4f/C, hidden truth 0.016/C", c)
	}
	for _, v := range Variants() {
		if res.Model(v).TempCoeff != c {
			t.Errorf("%v: model did not adopt the temperature coefficient", v)
		}
	}
}

func TestFreqSweepPoints(t *testing.T) {
	cases := []struct {
		name  string
		sweep FreqSweep
		want  []float64
	}{
		{"figure-2 ladder", FreqSweep{MinMHz: 800, MaxMHz: 1400, StepMHz: 100},
			[]float64{800, 900, 1000, 1100, 1200, 1300, 1400}},
		{"single point", FreqSweep{MinMHz: 1000, MaxMHz: 1000, StepMHz: 200},
			[]float64{1000}},
		{"step larger than range", FreqSweep{MinMHz: 500, MaxMHz: 600, StepMHz: 200},
			[]float64{500}},
		{"zero step", FreqSweep{MinMHz: 500, MaxMHz: 600, StepMHz: 0}, nil},
		{"negative step", FreqSweep{MinMHz: 500, MaxMHz: 600, StepMHz: -100}, nil},
		{"inverted range", FreqSweep{MinMHz: 600, MaxMHz: 500, StepMHz: 100}, nil},
		{"NaN bound", FreqSweep{MinMHz: math.NaN(), MaxMHz: 600, StepMHz: 100}, nil},
		// A step below one ULP of the endpoints used to make the
		// accumulating loop spin forever (f+step rounds back to f); by-index
		// generation must terminate with the nominal point count instead.
		{"sub-ULP step, min==max", FreqSweep{MinMHz: 2000, MaxMHz: 2000, StepMHz: 1e-13},
			[]float64{2000}},
		{"denormal step, huge count", FreqSweep{MinMHz: 1, MaxMHz: 2, StepMHz: 5e-324}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.sweep.Points()
			if len(got) != len(tc.want) {
				t.Fatalf("Points() = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("Points()[%d] = %g, want %g", i, got[i], tc.want[i])
				}
			}
		})
	}
}

// The HW census counts each record stream once, times its warps. It must
// give the per-opcode counts of a walk over every warp's records, on emu's
// traces, whose warps share streams, and on copies in which none do; and
// hwActivity's instruction totals must be the walk's.
func TestHWCensusMatchesWarpWalk(t *testing.T) {
	tb, err := NewTestbench(config.Volta(), ubench.Quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []Workload{
		FromBench(ubench.DivergenceBench(tb.Arch, tb.Scale, core.MixIntFP, 7)),
		FromBench(ubench.OccupancyBench(tb.Arch, tb.Scale, 4)),
	} {
		kt, err := tb.Trace(w, isa.SASS)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(kt.Streams()); n >= len(kt.Warps) {
			t.Errorf("%s: %d streams for %d warps, want sharing", w.Name, n, len(kt.Warps))
		}
		want, wantLanes := tracetest.Walk(kt)
		for _, c := range []*trace.KernelTrace{kt, tracetest.Unshared(kt)} {
			if counts, lanes := opCensus(c); counts != want.OpCounts || lanes != wantLanes {
				t.Errorf("%s (%d streams): census %v / %v, warp walk %v / %v",
					w.Name, len(c.Streams()), counts, lanes, want.OpCounts, wantLanes)
			}
		}
		a, err := tb.Activity(w, HW)
		if err != nil {
			t.Fatal(err)
		}
		if got := a.Counts[core.CompIBUF]; got != float64(want.DynInstrs) {
			t.Errorf("%s: HW activity counts %v warp instructions, warp walk %d", w.Name, got, want.DynInstrs)
		}
		if a.AvgLanes != want.AvgLanes {
			t.Errorf("%s: HW activity averages %v lanes, warp walk %v", w.Name, a.AvgLanes, want.AvgLanes)
		}
	}
}
