package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"accelwattch/internal/config"
	"accelwattch/internal/isa"
)

func testModel() *Model {
	m := &Model{
		Arch:         config.Volta(),
		BaseEnergyPJ: InitialEnergiesPJ(),
		ConstW:       32.5,
		IdleSMW:      0.1,
		RefSMs:       80,
	}
	for i := range m.Scale {
		m.Scale[i] = 0.1
	}
	for i := range m.Div {
		m.Div[i] = DivModel{FirstLaneW: 30, AddLaneW: 0.7}
	}
	return m
}

func fullActivity() Activity {
	a := Activity{
		Cycles:    1e6,
		ActiveSMs: 80,
		AvgLanes:  32,
		Mix:       MixIntFP,
	}
	a.Counts[CompALU] = 5e8
	a.Counts[CompRF] = 2e9
	a.Counts[CompIBUF] = 2e7
	a.Counts[CompSCHED] = 2e7
	a.Counts[CompPIPE] = 2e7
	return a
}

func TestComponentNames(t *testing.T) {
	seen := map[string]bool{}
	for c := 0; c < NumComponents; c++ {
		n := Component(c).String()
		if n == "" || seen[n] {
			t.Errorf("component %d has empty or duplicate name %q", c, n)
		}
		seen[n] = true
	}
	if NumDynComponents != 22 {
		t.Errorf("Table 1 defines 22 dynamic components, have %d", NumDynComponents)
	}
	if len(DynComponents()) != 22 {
		t.Error("DynComponents length mismatch")
	}
}

func TestOrderConstraintsMatchPaper(t *testing.T) {
	// Eq. (14): X_alu <= X_fpu <= X_dpu, X_alu <= X_imul, and X_fpmul
	// bounded by eight unit factors.
	var fpmulCount int
	pairs := map[[2]Component]bool{}
	for _, oc := range OrderConstraints {
		pairs[oc] = true
		if oc[0] == CompFPMUL {
			fpmulCount++
		}
	}
	for _, want := range [][2]Component{
		{CompALU, CompFPU}, {CompFPU, CompDPU}, {CompALU, CompINTMUL},
	} {
		if !pairs[want] {
			t.Errorf("missing constraint %v <= %v", want[0], want[1])
		}
	}
	if fpmulCount != 8 {
		t.Errorf("X_fpmul must be bounded by 8 factors, got %d", fpmulCount)
	}
}

func TestEstimateBreakdown(t *testing.T) {
	m := testModel()
	a := fullActivity()
	b, err := m.Estimate(a)
	if err != nil {
		t.Fatal(err)
	}
	if b.Watts[CompConst] != 32.5 {
		t.Errorf("const = %v", b.Watts[CompConst])
	}
	if b.Watts[CompIdleSM] != 0 {
		t.Errorf("no idle SMs expected, got %v W", b.Watts[CompIdleSM])
	}
	total := b.Total()
	if total <= 32.5 {
		t.Error("total must exceed constant power for an active kernel")
	}
	sum := 0.0
	for _, w := range b.Watts {
		if w < 0 {
			t.Error("negative component power")
		}
		sum += w
	}
	if math.Abs(sum-total) > 1e-9 {
		t.Error("Total() must equal the component sum")
	}
	if b.Dynamic() >= total {
		t.Error("dynamic must exclude static/const")
	}
}

func TestEstimateIdleSMs(t *testing.T) {
	m := testModel()
	a := fullActivity()
	a.ActiveSMs = 60
	b, err := m.Estimate(a)
	if err != nil {
		t.Fatal(err)
	}
	want := m.IdleSMW * 20
	if math.Abs(b.Watts[CompIdleSM]-want) > 1e-9 {
		t.Errorf("idle SM power %v, want %v", b.Watts[CompIdleSM], want)
	}
}

func TestEstimateDVFSScaling(t *testing.T) {
	m := testModel()
	a := fullActivity()
	bBase, _ := m.Estimate(a)

	a.ClockMHz = m.Arch.BaseClockMHz / 2
	bHalf, err := m.Estimate(a)
	if err != nil {
		t.Fatal(err)
	}
	// Same cycle count at half clock means double runtime: dynamic power
	// drops by more than 2x (V^2 f scaling); static drops by V ratio;
	// const unchanged.
	if bHalf.Watts[CompConst] != bBase.Watts[CompConst] {
		t.Error("constant power must not scale with frequency")
	}
	dynRatio := bHalf.Dynamic() / bBase.Dynamic()
	if dynRatio >= 0.5 {
		t.Errorf("dynamic power ratio at half clock = %.3f, want < 0.5 (V^2 f)", dynRatio)
	}
	stRatio := bHalf.Watts[CompStatic] / bBase.Watts[CompStatic]
	if stRatio <= dynRatio || stRatio >= 1 {
		t.Errorf("static ratio %.3f should lie between dynamic ratio and 1", stRatio)
	}
}

func TestEstimateValidation(t *testing.T) {
	m := testModel()
	bad := fullActivity()
	bad.Cycles = 0
	if _, err := m.Estimate(bad); err == nil {
		t.Error("zero cycles accepted")
	}
	bad = fullActivity()
	bad.AvgLanes = 40
	if _, err := m.Estimate(bad); err == nil {
		t.Error("lanes > 32 accepted")
	}
	bad = fullActivity()
	bad.Counts[CompALU] = -1
	if _, err := m.Estimate(bad); err == nil {
		t.Error("negative count accepted")
	}
}

func TestDivModelShapes(t *testing.T) {
	lin := FitDivModel(30, 61, false)
	hw := FitDivModel(30, 61, true)

	// Both models reproduce the measured endpoints.
	if math.Abs(lin.ChipStaticW(1)-30) > 1e-9 || math.Abs(lin.ChipStaticW(32)-61) > 1e-9 {
		t.Errorf("linear endpoints: %v %v", lin.ChipStaticW(1), lin.ChipStaticW(32))
	}
	if math.Abs(hw.ChipStaticW(1)-30) > 1e-9 || math.Abs(hw.ChipStaticW(32)-61) > 1e-9 {
		t.Errorf("half-warp endpoints: %v %v", hw.ChipStaticW(1), hw.ChipStaticW(32))
	}
	// The sawtooth: y=16 matches y=32, y=17 dips below y=16.
	if math.Abs(hw.ChipStaticW(16)-hw.ChipStaticW(32)) > 1e-9 {
		t.Error("half-warp model must peak equally at y=16 and y=32")
	}
	if hw.ChipStaticW(17) >= hw.ChipStaticW(16) {
		t.Error("half-warp model must dip at y=17")
	}
	// Linear model is monotone.
	if lin.ChipStaticW(17) <= lin.ChipStaticW(16) {
		t.Error("linear model must be monotone")
	}
	// Clamping.
	if hw.ChipStaticW(0) != hw.ChipStaticW(1) || hw.ChipStaticW(50) != hw.ChipStaticW(32) {
		t.Error("y must clamp to [1, 32]")
	}
}

// Property: both divergence models are non-negative and bounded by MaxW
// for all y.
func TestQuickDivModelBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		first := r.Float64() * 50
		full := first + r.Float64()*50
		for _, hwFlag := range []bool{false, true} {
			dm := FitDivModel(first, full, hwFlag)
			for y := 1.0; y <= 32; y += 0.5 {
				v := dm.ChipStaticW(y)
				if v < first-1e-9 || v > dm.MaxW()+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestMixClassification(t *testing.T) {
	cases := []struct {
		name string
		in   MixInput
		want MixCategory
	}{
		{"pure add", MixInput{IntAdd: 100, Total: 110, IPC: 1}, MixIntAdd},
		{"pure mul", MixInput{IntMul: 80, IntAdd: 20, Total: 110, IPC: 1}, MixIntMul},
		{"mixed int", MixInput{IntAdd: 60, IntMul: 40, Total: 110, IPC: 1}, MixInt},
		{"int fp", MixInput{IntAdd: 50, FP32: 50, Total: 110, IPC: 1}, MixIntFP},
		{"int fp dp", MixInput{IntAdd: 40, FP32: 40, FP64: 20, Total: 110, IPC: 1}, MixIntFPDP},
		{"int fp sfu", MixInput{IntAdd: 40, FP32: 40, SFU: 20, Total: 110, IPC: 1}, MixIntFPSFU},
		{"int fp tex", MixInput{IntAdd: 40, FP32: 40, Tex: 20, Total: 110, IPC: 1}, MixIntFPTex},
		{"tensor", MixInput{IntAdd: 40, FP32: 40, Tensor: 20, Total: 110, IPC: 1}, MixIntFPTensor},
		{"light", MixInput{Light: 100, IntAdd: 5, Total: 110, IPC: 1}, MixLight},
		{"idle", MixInput{IntAdd: 10, Total: 10, IPC: 0.001}, MixLight},
		{"empty", MixInput{}, MixLight},
	}
	for _, c := range cases {
		if got := ClassifyMix(c.in); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestActivityAddAndScale(t *testing.T) {
	a := fullActivity()
	b := fullActivity()
	b.ActiveSMs = 40
	sum := a
	sum.Add(&b)
	if sum.Cycles != 2e6 {
		t.Errorf("cycles = %v", sum.Cycles)
	}
	if math.Abs(sum.ActiveSMs-60) > 1e-9 {
		t.Errorf("cycle-weighted SMs = %v, want 60", sum.ActiveSMs)
	}
	if sum.Counts[CompALU] != 1e9 {
		t.Error("counts must accumulate")
	}
	half := sum.Scale(0.5)
	if half.Counts[CompALU] != 5e8 || half.Cycles != 1e6 {
		t.Error("Scale must scale counts and cycles")
	}
}

func TestEstimateTrace(t *testing.T) {
	m := testModel()
	a := fullActivity()
	windows := []Activity{a.Scale(0.25), a.Scale(0.25), a.Scale(0.5)}
	series, avg, err := m.EstimateTrace(windows)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("series length %d", len(series))
	}
	whole, _ := m.EstimatePower(a)
	if math.Abs(avg-whole) > 0.5 {
		t.Errorf("windowed average %.2f differs from aggregate %.2f", avg, whole)
	}
}

func TestBreakdownTop(t *testing.T) {
	var b Breakdown
	b.Watts[CompRF] = 30
	b.Watts[CompConst] = 32.5
	b.Watts[CompALU] = 5
	top := b.Top(2)
	if top[0] != CompConst || top[1] != CompRF {
		t.Errorf("Top(2) = %v", top)
	}
}

func TestPowerMapCoversAllOps(t *testing.T) {
	// Every opcode must map to a component, and each execution-unit
	// component must be reachable from at least one opcode.
	seen := map[Component]bool{}
	for op := isa.Op(1); int(op) < isa.NumOps; op++ {
		seen[OpComponent(op)] = true
	}
	for _, c := range []Component{CompALU, CompINTMUL, CompFPU, CompFPMUL,
		CompDPU, CompDPMUL, CompSQRT, CompSINCOS, CompEXP, CompLOG,
		CompTENSOR, CompTEX} {
		if !seen[c] {
			t.Errorf("no opcode maps to %v", c)
		}
	}
}

// DVFS transitions (Section 5.2): when the performance model reports
// different clock/voltage settings per sampling window, the trace resolves
// the power transitions.
func TestEstimateTraceDVFSTransitions(t *testing.T) {
	m := testModel()
	base := fullActivity().Scale(0.25)
	lo, hi := base, base
	lo.ClockMHz = 700
	lo.Voltage = m.Arch.Voltage(700)
	hi.ClockMHz = 1400
	hi.Voltage = m.Arch.Voltage(1400)
	series, avg, err := m.EstimateTrace([]Activity{lo, hi, lo, hi})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("series length %d", len(series))
	}
	if !(series[0] < series[1] && series[2] < series[3]) {
		t.Errorf("power transitions not resolved: %v", series)
	}
	if series[0] != series[2] || series[1] != series[3] {
		t.Errorf("identical windows must estimate identically: %v", series)
	}
	if avg <= series[0] || avg >= series[1] {
		t.Errorf("time-weighted average %v outside the window range", avg)
	}
}

// The ledger wire form of a breakdown: Map keeps zero-watt components so
// the map covers the full component vocabulary, and BreakdownFromMap
// inverts it bit for bit. Unknown names must be rejected — that is how a
// corrupted ledger is detected instead of silently misattributed.
func TestBreakdownMapRoundTrip(t *testing.T) {
	var b Breakdown
	for i := 0; i < NumComponents; i++ {
		b.Watts[i] = 0.1 * float64(i*i)
	}
	b.Watts[CompFPU] = 0 // a genuine zero must survive the round trip

	m := b.Map()
	if len(m) != NumComponents {
		t.Fatalf("Map has %d entries, want %d (zero components must be kept)", len(m), NumComponents)
	}
	rt, err := BreakdownFromMap(m)
	if err != nil {
		t.Fatal(err)
	}
	if rt != b {
		t.Errorf("round trip altered the breakdown:\n  in  %v\n  out %v", b.Watts, rt.Watts)
	}
	if rt.Total() != b.Total() {
		t.Errorf("totals diverged: %v vs %v", rt.Total(), b.Total())
	}

	// Missing components read as zero; unknown names are an error.
	partial, err := BreakdownFromMap(map[string]float64{"alu": 3.5})
	if err != nil {
		t.Fatal(err)
	}
	if partial.Watts[CompALU] != 3.5 || partial.Total() != 3.5 {
		t.Errorf("partial map misread: %v", partial.Watts)
	}
	if _, err := BreakdownFromMap(map[string]float64{"flux_capacitor": 1.21}); err == nil {
		t.Error("unknown component name accepted")
	}
}
