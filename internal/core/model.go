package core

import (
	"fmt"
	"math"

	"accelwattch/internal/config"
)

// Model is a tuned AccelWattch power model for one architecture. Estimate
// implements Eq. (10)/(12): dynamic power from per-component activity
// factors and tuned energies, plus divergence-aware static power per active
// SM, idle-SM static power, and constant power — all scaled for DVFS per
// Eq. (2) and optionally for a different technology node.
type Model struct {
	Arch *config.Arch

	// BaseEnergyPJ are the initial per-access energy estimates (the
	// E-hat of Eq. 12) and Scale the tuned correction factors (the X* of
	// Eq. 14); the effective energy of component i is their product.
	BaseEnergyPJ [NumDynComponents]float64
	Scale        [NumDynComponents]float64

	// ConstW is the constant power estimated by the DVFS methodology of
	// Section 4.2 (32.5 W on GV100).
	ConstW float64

	// IdleSMW is the per-idle-SM static power of Eq. (8).
	IdleSMW float64

	// Div holds the per-mix-category divergence-aware static models of
	// Sections 4.4-4.5, expressed at chip level for RefSMs SMs.
	Div [NumMixCategories]DivModel

	// RefSMs is the SM count of the tuning architecture (80 on GV100);
	// Eq. (9) divides the chip-level static model by it.
	RefSMs int

	// TempCoeff is the experimentally-derived temperature factor of
	// Section 4.1: static power is multiplied by exp(TempCoeff*(T-65))
	// when an activity window reports a die temperature. Zero means the
	// model was tuned at the 65C reference and applies no correction.
	TempCoeff float64

	// TunedVariant records which AccelWattch variant ("SASS_SIM", ...)
	// the model's correction factors were fit under. It is provenance
	// metadata only — the estimate math never reads it — but serving a
	// model under a different variant than the one it was tuned for is a
	// silent modelling error, so loaders surface (and the gateway can
	// refuse) variant-mismatched use. Empty means unrecorded (models
	// saved before this field existed).
	TunedVariant string
}

// Validate checks that the model is usable. A nil model is not.
func (m *Model) Validate() error {
	if m == nil {
		return fmt.Errorf("core: nil model")
	}
	if m.Arch == nil {
		return fmt.Errorf("core: model has no architecture")
	}
	if m.RefSMs <= 0 {
		return fmt.Errorf("core: model has non-positive RefSMs %d", m.RefSMs)
	}
	// The comparisons below are written so that NaN fails them: NaN < 0 is
	// false, so a plain negativity check would wave corrupted values
	// through into every downstream power estimate.
	if !(m.ConstW >= 0) || math.IsInf(m.ConstW, 0) {
		return fmt.Errorf("core: constant power %g is negative or not finite", m.ConstW)
	}
	if !(m.IdleSMW >= 0) || math.IsInf(m.IdleSMW, 0) {
		return fmt.Errorf("core: idle-SM power %g is negative or not finite", m.IdleSMW)
	}
	if math.IsNaN(m.TempCoeff) || math.IsInf(m.TempCoeff, 0) {
		return fmt.Errorf("core: temperature coefficient %g is not finite", m.TempCoeff)
	}
	for i := 0; i < NumDynComponents; i++ {
		if !(m.BaseEnergyPJ[i] >= 0) || math.IsInf(m.BaseEnergyPJ[i], 0) ||
			!(m.Scale[i] >= 0) || math.IsInf(m.Scale[i], 0) {
			return fmt.Errorf("core: negative or non-finite energy or scale for %v", Component(i))
		}
	}
	for mix := MixCategory(0); mix < NumMixCategories; mix++ {
		d := m.Div[mix]
		if !(d.FirstLaneW >= 0) || math.IsInf(d.FirstLaneW, 0) ||
			!(d.AddLaneW >= 0) || math.IsInf(d.AddLaneW, 0) {
			return fmt.Errorf("core: negative or non-finite divergence model for %v", mix)
		}
	}
	return nil
}

// EffectiveEnergyPJ returns BaseEnergy*Scale for a component.
func (m *Model) EffectiveEnergyPJ(c Component) float64 {
	return m.BaseEnergyPJ[c] * m.Scale[c]
}

// Breakdown is a per-component power report in watts.
type Breakdown struct {
	Watts [NumComponents]float64
}

// Total sums all components.
func (b *Breakdown) Total() float64 {
	t := 0.0
	for _, w := range b.Watts {
		t += w
	}
	return t
}

// Dynamic sums only the tunable dynamic components.
func (b *Breakdown) Dynamic() float64 {
	t := 0.0
	for i := 0; i < NumDynComponents; i++ {
		t += b.Watts[i]
	}
	return t
}

// Map returns the breakdown keyed by stable component names — the ledger
// wire form of a per-kernel attribution record. Zero-watt components are
// kept so the map always sums to Total exactly.
func (b *Breakdown) Map() map[string]float64 {
	out := make(map[string]float64, NumComponents)
	for i := 0; i < NumComponents; i++ {
		out[Component(i).String()] = b.Watts[i]
	}
	return out
}

// BreakdownFromMap reconstructs a breakdown from its Map form (a ledger
// event's breakdown payload). Unknown component names are an error;
// missing components read as zero watts.
func BreakdownFromMap(m map[string]float64) (Breakdown, error) {
	var b Breakdown
	for name, w := range m {
		c, ok := ComponentByName(name)
		if !ok {
			return b, fmt.Errorf("core: unknown component %q in breakdown", name)
		}
		b.Watts[c] = w
	}
	return b, nil
}

// Top returns the n largest components by wattage.
func (b *Breakdown) Top(n int) []Component {
	idx := make([]Component, NumComponents)
	for i := range idx {
		idx[i] = Component(i)
	}
	// Insertion sort: NumComponents is 25.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && b.Watts[idx[j]] > b.Watts[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	if n > len(idx) {
		n = len(idx)
	}
	return idx[:n]
}

// EstimateInto evaluates the power model for one activity window (Eq. 10)
// into b, overwriting every component, with no allocation. It is the only
// implementation of the equation: Estimate, EstimateTrace, validation, the
// serving gateway and the attribution collector all call it, and
// SweepLadderInto's oracle is a loop over it. On an invalid activity b is
// zeroed and the activity's validation error returned. The model itself is
// not checked here; callers validate it once (Validate).
func (m *Model) EstimateInto(a *Activity, b *Breakdown) error {
	if err := a.Validate(); err != nil {
		*b = Breakdown{}
		return err
	}
	clock := a.ClockMHz
	if clock == 0 {
		clock = m.Arch.BaseClockMHz
	}
	volt := a.Voltage
	if volt == 0 {
		volt = m.Arch.Voltage(clock)
	}
	vRatio := volt / m.Arch.BaseVoltage()
	timeS := a.Cycles / (clock * 1e6)

	// Dynamic power: a_i * E_i * x_i / T, scaled by (V/V0)^2 (Eq. 2's
	// CV^2f dependence; the f factor enters through T).
	for i := 0; i < NumDynComponents; i++ {
		b.Watts[i] = a.Counts[i] * m.BaseEnergyPJ[i] * m.Scale[i] * 1e-12 * vRatio * vRatio / timeS
	}
	for i := NumDynComponents; i < NumComponents; i++ {
		b.Watts[i] = 0
	}

	// Static power per active SM with y active lanes (Eq. 9): the
	// chip-level divergence model at RefSMs, divided by RefSMs, times the
	// number of active SMs; static scales with V (Eq. 2's nV term) and
	// exponentially with temperature around the 65C tuning point
	// (Section 4.1).
	k := a.ActiveSMs
	if k > 0 {
		tempF := 1.0
		if m.TempCoeff != 0 && a.TemperatureC != 0 {
			tempF = math.Exp(m.TempCoeff * (a.TemperatureC - 65))
		}
		perSM := m.Div[a.Mix].ChipStaticW(a.AvgLanes) / float64(m.RefSMs)
		b.Watts[CompStatic] = perSM * k * vRatio * tempF
		idle := float64(m.Arch.NumSMs) - k
		if idle < 0 {
			idle = 0
		}
		b.Watts[CompIdleSM] = m.IdleSMW * idle * vRatio * tempF
	}
	b.Watts[CompConst] = m.ConstW
	return nil
}

// Estimate is EstimateInto returning the breakdown by value.
func (m *Model) Estimate(a Activity) (Breakdown, error) {
	var b Breakdown
	err := m.EstimateInto(&a, &b)
	return b, err
}

// EstimatePower is Estimate returning only total watts.
func (m *Model) EstimatePower(a Activity) (float64, error) {
	b, err := m.Estimate(a)
	if err != nil {
		return 0, err
	}
	return b.Total(), nil
}

// EstimateTrace evaluates the model over a sequence of sampling windows
// (the cycle-level power trace of Section 5.2) and returns per-window total
// watts plus the time-weighted average power. The model is validated once,
// then each window goes through EstimateInto.
func (m *Model) EstimateTrace(windows []Activity) ([]float64, float64, error) {
	if err := m.Validate(); err != nil {
		return nil, 0, err
	}
	out := make([]float64, len(windows))
	var b Breakdown
	var energy, time float64
	for i := range windows {
		if err := m.EstimateInto(&windows[i], &b); err != nil {
			return nil, 0, fmt.Errorf("window %d: %w", i, err)
		}
		p := b.Total()
		out[i] = p
		clock := windows[i].ClockMHz
		if clock == 0 {
			clock = m.Arch.BaseClockMHz
		}
		t := windows[i].Cycles / (clock * 1e6)
		energy += p * t
		time += t
	}
	if time == 0 {
		return out, 0, nil
	}
	return out, energy / time, nil
}

// SweepLadderInto evaluates one activity across a DVFS clock ladder, writing
// the total watts of each rung into totals (len(totals) must be >=
// len(clocksMHz)). Each totals[j] is bit-identical to EstimateInto with
// ClockMHz = clocksMHz[j] followed by Breakdown.Total; a zero rung clock
// selects the base clock, and a zero a.Voltage resolves per rung from the
// architecture's V-f curve, exactly as there.
//
// Everything clock-invariant is hoisted out of the rung loop: validation,
// the divergence model, the temperature factor, the static and idle-SM
// products, and the prefix counts*base*scale*1e-12 of the dynamic term's
// left-to-right multiplication chain
//
//	(((((counts*base)*scale)*1e-12)*vRatio)*vRatio)/timeS
//
// Floating-point multiplication is not associative, so only a prefix may be
// hoisted: naming an intermediate is not reassociation, and every rung
// therefore rounds exactly as EstimateInto does. Each rung then costs two
// multiplies and a divide per dynamic component. Tests hold the ladder to
// its per-rung EstimateInto oracle bit for bit.
func (m *Model) SweepLadderInto(a *Activity, clocksMHz []float64, totals []float64) error {
	if len(totals) < len(clocksMHz) {
		return fmt.Errorf("core: ladder output holds %d totals for %d rungs", len(totals), len(clocksMHz))
	}
	if err := a.Validate(); err != nil {
		return err
	}

	var dyn [NumDynComponents]float64
	for i := 0; i < NumDynComponents; i++ {
		dyn[i] = a.Counts[i] * m.BaseEnergyPJ[i] * m.Scale[i] * 1e-12
	}
	k := a.ActiveSMs
	var hStatic, hIdle, tempF float64
	if k > 0 {
		tempF = 1.0
		if m.TempCoeff != 0 && a.TemperatureC != 0 {
			tempF = math.Exp(m.TempCoeff * (a.TemperatureC - 65))
		}
		perSM := m.Div[a.Mix].ChipStaticW(a.AvgLanes) / float64(m.RefSMs)
		hStatic = perSM * k
		idle := float64(m.Arch.NumSMs) - k
		if idle < 0 {
			idle = 0
		}
		hIdle = m.IdleSMW * idle
	}
	baseVolt := m.Arch.BaseVoltage()

	for j, clock := range clocksMHz {
		if clock == 0 {
			clock = m.Arch.BaseClockMHz
		}
		volt := a.Voltage
		if volt == 0 {
			volt = m.Arch.Voltage(clock)
		}
		vRatio := volt / baseVolt
		timeS := a.Cycles / (clock * 1e6)

		// Accumulate in component-index order, exactly as Breakdown.Total
		// sums Watts[0..24]: dynamic components, then static, idle-SM, and
		// constant. When k <= 0 the static terms are literal zeros, matching
		// the zeroed breakdown slots EstimateInto leaves behind.
		t := 0.0
		for i := 0; i < NumDynComponents; i++ {
			t += dyn[i] * vRatio * vRatio / timeS
		}
		if k > 0 {
			t += hStatic * vRatio * tempF
			t += hIdle * vRatio * tempF
		} else {
			t += 0.0
			t += 0.0
		}
		t += m.ConstW
		totals[j] = t
	}
	return nil
}

// BatchEstimator is the model itself.
//
// Deprecated: call the Model's methods directly.
type BatchEstimator = Model

// NewBatchEstimator validates m and returns it.
//
// Deprecated: validate the model with Validate and call its methods.
func NewBatchEstimator(m *Model) (*BatchEstimator, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Derivation records how a derived model was produced from a tuned base —
// the first-class form of the Section 7.1 design-space transforms. It is
// the provenance a model zoo attaches to Pascal/Turing entries derived from
// the Volta-tuned model: which architectures, which technology-scaling
// factors, and which constant-power board adjustment.
type Derivation struct {
	FromArch string           `json:"from_arch"`
	ToArch   string           `json:"to_arch"`
	Tech     config.TechScale `json:"tech_scale"`
	// ConstMult is the board-level constant-power multiplier (the paper
	// uses 1.7 for Turing's consumer board — fans and peripheral
	// circuitry — and 1.0 otherwise).
	ConstMult float64 `json:"const_mult"`
}

// Identity reports whether the derivation changes nothing: same node and a
// unit constant-power multiplier.
func (d Derivation) Identity() bool { return d.Tech.Identity() && d.ConstMult == 1 }

// DefaultConstMult is the Section 7.1 constant-power multiplier for a
// derivation onto arch: 1.7 on the Turing RTX 2060S, whose consumer board
// adds fans and peripheral circuitry, and 1.0 otherwise.
func DefaultConstMult(arch *config.Arch) float64 {
	if arch != nil && arch.Name == "turing-rtx2060s" {
		return 1.7
	}
	return 1.0
}

// Derive returns a copy of the model retargeted to a new architecture
// without retuning — the design-space-exploration transform of Section 7.1
// — together with the derivation record describing exactly what was
// applied. Technology scaling multiplies per-access dynamic energies by the
// IRDS-shaped dynamic factor and static powers (idle-SM and both
// divergence-model coefficients) by the static factor when the nodes differ
// (e.g. Volta 12 nm -> Pascal 16 nm); constMult adjusts the constant power
// for board-level differences.
func (m *Model) Derive(arch *config.Arch, constMult float64) (*Model, Derivation, error) {
	if arch == nil {
		return nil, Derivation{}, fmt.Errorf("core: cannot derive onto a nil architecture")
	}
	if err := arch.Validate(); err != nil {
		return nil, Derivation{}, err
	}
	if !(constMult > 0) || math.IsInf(constMult, 0) {
		return nil, Derivation{}, fmt.Errorf("core: constant-power multiplier %g is not positive and finite", constMult)
	}
	ts, err := config.NewTechScale(m.Arch.TechNodeNM, arch.TechNodeNM)
	if err != nil {
		return nil, Derivation{}, err
	}
	d := Derivation{FromArch: m.Arch.Name, ToArch: arch.Name, Tech: ts, ConstMult: constMult}
	out := *m
	out.Arch = arch
	out.ConstW = m.ConstW * constMult
	if !ts.Identity() {
		for i := range out.BaseEnergyPJ {
			out.BaseEnergyPJ[i] *= ts.Dynamic
		}
		out.IdleSMW *= ts.Static
		for i := range out.Div {
			out.Div[i].FirstLaneW *= ts.Static
			out.Div[i].AddLaneW *= ts.Static
		}
	}
	return &out, d, nil
}
