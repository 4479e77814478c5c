package core

import (
	"math"
	"testing"
)

// splitmix64 is the corpus-stable PRNG the fuzz harness expands one seed
// into a whole batch of activities with.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e9b5
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fuzzActivity derives one activity from the PRNG stream. About one in six
// is invalid (negative cycles, negative counts, out-of-range lanes or SMs),
// so the ladder's error half is exercised continuously.
func fuzzActivity(s *uint64) Activity {
	f := func(scale float64) float64 {
		return float64(splitmix64(s)%(1<<20)) / float64(1<<10) * scale
	}
	a := Activity{
		Cycles:    1 + f(1e4),
		ClockMHz:  f(2000),
		Voltage:   f(1.2),
		ActiveSMs: f(100),
		AvgLanes:  f(32) / 32,
		Mix:       MixCategory(splitmix64(s) % uint64(NumMixCategories)),
	}
	a.AvgLanes = math.Min(a.AvgLanes*32, 32)
	if splitmix64(s)%4 == 0 {
		a.TemperatureC = 40 + f(60)
	}
	for i := 0; i < NumDynComponents; i++ {
		if splitmix64(s)%3 == 0 {
			a.Counts[i] = f(1e9)
		}
	}
	switch splitmix64(s) % 24 {
	case 0:
		a.Cycles = -a.Cycles
	case 1:
		a.Counts[splitmix64(s)%uint64(NumDynComponents)] = -1
	case 2:
		a.AvgLanes = 33
	case 3:
		a.ActiveSMs = -2
	}
	return a
}

// FuzzBatchVsScalarEstimate is the differential fuzz target of the one
// batched path, SweepLadderInto: for a randomly derived batch of activities
// and a ladder derived from the seed's clock, every rung's total must be
// bit-identical to its scalar oracle, EstimateInto at that clock summed by
// Breakdown.Total, and the ladder must fail exactly when the activity does
// not validate.
func FuzzBatchVsScalarEstimate(f *testing.F) {
	f.Add(uint64(1), uint64(4), 0.018, 1100.0)
	f.Add(uint64(42), uint64(8), 0.0, 0.0)
	f.Add(uint64(0xdeadbeef), uint64(1), -0.01, 835.5)
	f.Add(uint64(7), uint64(13), 0.018, 1912.0)

	model := testModel()
	tmodel := tempModel()

	f.Fuzz(func(t *testing.T, seed, n uint64, tempCoeff, clock float64) {
		if math.IsNaN(clock) || math.IsInf(clock, 0) {
			t.Skip()
		}
		m := model
		if tempCoeff != 0 {
			if math.IsNaN(tempCoeff) || math.IsInf(tempCoeff, 0) {
				t.Skip()
			}
			m = tmodel
		}
		s := seed
		ladder := []float64{0, clock, clock * 1.5, 2 * clock}
		totals := make([]float64, len(ladder))
		var b Breakdown
		for i := uint64(0); i <= n%16; i++ {
			a := fuzzActivity(&s)
			lerr := m.SweepLadderInto(&a, ladder, totals)
			verr := a.Validate()
			if (lerr == nil) != (verr == nil) {
				t.Fatalf("activity %d: ladder err %v, validate err %v", i, lerr, verr)
			}
			if lerr != nil {
				continue
			}
			for j, c := range ladder {
				pa := a
				pa.ClockMHz = c
				if err := m.EstimateInto(&pa, &b); err != nil {
					t.Fatalf("activity %d oracle rung %d: %v", i, j, err)
				}
				if math.Float64bits(totals[j]) != math.Float64bits(b.Total()) {
					t.Fatalf("activity %d rung %d (%g MHz): ladder %x oracle %x",
						i, j, c, math.Float64bits(totals[j]), math.Float64bits(b.Total()))
				}
			}
		}
	})
}
