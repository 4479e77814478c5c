package core

import (
	"math"
	"testing"
)

// batchCases is a spread of activities covering every branch of
// EstimateInto: default and explicit DVFS points, explicit voltage,
// temperature correction on and off, every mix category, zero active SMs
// (no static terms), fractional SMs and lanes, over-subscribed SMs (idle
// clamp), and empty count vectors.
func batchCases() []Activity {
	var acts []Activity
	base := fullActivity()
	acts = append(acts, base)

	a := base
	a.ClockMHz = 1100
	acts = append(acts, a)

	a = base
	a.ClockMHz = 835
	a.Voltage = 0.91
	acts = append(acts, a)

	a = base
	a.TemperatureC = 71
	acts = append(acts, a)

	a = base
	a.ActiveSMs = 0 // no static or idle-SM terms
	acts = append(acts, a)

	a = base
	a.ActiveSMs = 97.5 // above NumSMs: idle clamps at zero
	a.AvgLanes = 16.25
	acts = append(acts, a)

	for mix := MixCategory(0); mix < NumMixCategories; mix++ {
		a = base
		a.Mix = mix
		a.AvgLanes = 17 // the half-warp model's dip point
		acts = append(acts, a)
	}

	a = Activity{Cycles: 1, ActiveSMs: 0.5, AvgLanes: 0.5} // empty counts, sub-SM window
	acts = append(acts, a)

	return acts
}

// tempModel is testModel with a temperature coefficient, so the exp() branch
// participates in the comparisons.
func tempModel() *Model {
	m := testModel()
	m.TempCoeff = 0.018
	return m
}

// TestBatchMatchesScalarBitExact: a batch of activities evaluated into one
// reused breakdown, as the attribution collector does, must equal Estimate
// into a fresh one in every component. A slot EstimateInto failed to
// overwrite (the static terms of a window with no active SMs) would carry
// the previous activity's watts.
func TestBatchMatchesScalarBitExact(t *testing.T) {
	for _, m := range []*Model{testModel(), tempModel()} {
		var b Breakdown
		for i := range b.Watts {
			b.Watts[i] = math.Inf(1)
		}
		acts := batchCases()
		for i := range acts {
			if err := m.EstimateInto(&acts[i], &b); err != nil {
				t.Fatalf("EstimateInto %d: %v", i, err)
			}
			want, err := m.Estimate(acts[i])
			if err != nil {
				t.Fatalf("Estimate %d: %v", i, err)
			}
			for c := 0; c < NumComponents; c++ {
				if math.Float64bits(b.Watts[c]) != math.Float64bits(want.Watts[c]) {
					t.Errorf("activity %d component %v: reused %x fresh %x", i, Component(c),
						math.Float64bits(b.Watts[c]), math.Float64bits(want.Watts[c]))
				}
			}
		}
	}
}

// TestSweepLadderMatchesScalarBitExact pins the ladder-specialized path to
// its oracle: each rung's total must be bit-identical to EstimateInto at
// that rung's clock, summed by Breakdown.Total.
func TestSweepLadderMatchesScalarBitExact(t *testing.T) {
	ladder := []float64{0, 510, 835, 1100, 1417, 1912} // 0 = base clock
	for _, m := range []*Model{testModel(), tempModel()} {
		totals := make([]float64, len(ladder))
		for i, a := range batchCases() {
			if err := m.SweepLadderInto(&a, ladder, totals); err != nil {
				t.Fatalf("SweepLadderInto %d: %v", i, err)
			}
			for j, clock := range ladder {
				if want := rungOracle(t, m, a, clock); math.Float64bits(totals[j]) != math.Float64bits(want) {
					t.Errorf("activity %d rung %g MHz: ladder %x oracle %x", i, clock,
						math.Float64bits(totals[j]), math.Float64bits(want))
				}
			}
		}
	}
}

// rungOracle is the ladder's reference: EstimateInto at one clock, summed.
func rungOracle(t *testing.T, m *Model, a Activity, clock float64) float64 {
	t.Helper()
	a.ClockMHz = clock
	var b Breakdown
	if err := m.EstimateInto(&a, &b); err != nil {
		t.Fatalf("oracle rung %g MHz: %v", clock, err)
	}
	return b.Total()
}

// TestBatchErrorPositions: an invalid activity fails EstimateInto with its
// validation error and a zeroed breakdown, and fails SweepLadderInto before
// any rung; a ladder output shorter than the ladder is an error, not a
// partial write.
func TestBatchErrorPositions(t *testing.T) {
	m := testModel()
	acts := batchCases()
	bad := acts[3]
	bad.Cycles = -1
	b := Breakdown{}
	b.Watts[0] = math.Inf(1)
	err := m.EstimateInto(&bad, &b)
	if err == nil {
		t.Fatal("invalid activity accepted by EstimateInto")
	}
	if verr := bad.Validate(); verr == nil || verr.Error() != err.Error() {
		t.Fatalf("EstimateInto error %q, validation error %q", err, verr)
	}
	if b != (Breakdown{}) {
		t.Fatal("failed EstimateInto left a non-zero breakdown")
	}

	totals := []float64{math.Inf(1)}
	if err := m.SweepLadderInto(&bad, []float64{1000}, totals); err == nil {
		t.Fatal("invalid activity accepted by SweepLadderInto")
	}
	if !math.IsInf(totals[0], 1) {
		t.Fatal("SweepLadderInto wrote a rung for an invalid activity")
	}
	if err := m.SweepLadderInto(&acts[0], []float64{1000, 1100}, make([]float64, 1)); err == nil {
		t.Fatal("short ladder output accepted")
	}
}

// TestEstimateTraceMatchesBatch: the trace API must agree with a
// hand-rolled per-window Estimate loop bit for bit.
func TestEstimateTraceMatchesBatch(t *testing.T) {
	m := tempModel()
	windows := batchCases()
	out, avg, err := m.EstimateTrace(windows)
	if err != nil {
		t.Fatal(err)
	}
	var energy, time float64
	for i := range windows {
		b, err := m.Estimate(windows[i])
		if err != nil {
			t.Fatal(err)
		}
		p := b.Total()
		if math.Float64bits(out[i]) != math.Float64bits(p) {
			t.Errorf("window %d: trace %v scalar %v", i, out[i], p)
		}
		clock := windows[i].ClockMHz
		if clock == 0 {
			clock = m.Arch.BaseClockMHz
		}
		tS := windows[i].Cycles / (clock * 1e6)
		energy += p * tS
		time += tS
	}
	if math.Float64bits(avg) != math.Float64bits(energy/time) {
		t.Errorf("trace average %v, scalar %v", avg, energy/time)
	}

	// Error positions carry the window index.
	bad := windows
	bad[2].Cycles = 0
	if _, _, err := m.EstimateTrace(bad); err == nil {
		t.Fatal("invalid window accepted")
	} else if got := err.Error(); got[:9] != "window 2:" {
		t.Fatalf("error %q does not carry the window position", got)
	}

	// The model is checked before any window.
	nan := tempModel()
	nan.ConstW = math.NaN()
	if _, _, err := nan.EstimateTrace(windows[:1]); err == nil {
		t.Fatal("EstimateTrace accepted an invalid model")
	}
}

// TestNewBatchEstimatorRejectsInvalid: the deprecated constructor refuses
// what Model.Validate refuses.
func TestNewBatchEstimatorRejectsInvalid(t *testing.T) {
	if _, err := NewBatchEstimator(nil); err == nil {
		t.Fatal("nil model accepted")
	}
	m := testModel()
	m.ConstW = math.NaN()
	if _, err := NewBatchEstimator(m); err == nil {
		t.Fatal("NaN constant power accepted")
	}
}

// TestBatchZeroAllocs is the allocation contract of the two estimate
// paths: EstimateInto and SweepLadderInto allocate nothing. (Skipped under
// the race detector, whose instrumentation allocates.)
func TestBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m := tempModel()
	acts := batchCases()
	ladder := []float64{510, 835, 1100, 1417}
	totals := make([]float64, len(ladder))

	var b Breakdown
	if n := testing.AllocsPerRun(100, func() {
		for i := range acts {
			if err := m.EstimateInto(&acts[i], &b); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("EstimateInto allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := m.SweepLadderInto(&acts[0], ladder, totals); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("SweepLadderInto allocates %v per run, want 0", n)
	}
}
