package core

import "testing"

// benchActivities is a fixed 64-activity batch shaped like the paper's
// validation traffic: mixed counters, DVFS points, and SM occupancies.
func benchActivities() []Activity {
	acts := make([]Activity, 64)
	for i := range acts {
		a := fullActivity()
		a.ActiveSMs = float64(20 + i%61)
		a.AvgLanes = float64(1 + i%32)
		a.Mix = MixCategory(i % int(NumMixCategories))
		a.ClockMHz = 800 + float64(i%8)*80
		a.Counts[CompALU] += float64(i) * 1e6
		a.Counts[CompDRAMMC] = float64(i%5) * 3e7
		acts[i] = a
	}
	return acts
}

// BenchmarkEstimateScalar is BenchmarkEstimateBatch through Estimate, which
// returns each breakdown by value.
func BenchmarkEstimateScalar(b *testing.B) {
	m := testModel()
	acts := benchActivities()
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		for j := range acts {
			bd, err := m.Estimate(acts[j])
			if err != nil {
				b.Fatal(err)
			}
			sink += bd.Watts[CompConst]
		}
	}
	_ = sink
	b.ReportMetric(float64(len(acts)), "kernels/op")
}

// BenchmarkEstimateBatch is the gated estimate path: a 64-activity batch,
// each through EstimateInto into one reused breakdown. The trajectory gate
// holds this at 0 allocs/op.
func BenchmarkEstimateBatch(b *testing.B) {
	m := testModel()
	acts := benchActivities()
	var bd Breakdown
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range acts {
			if err := m.EstimateInto(&acts[j], &bd); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(acts)), "kernels/op")
}

// BenchmarkSweepLadder is the gated DVFS path: one activity across a
// 64-rung ladder with the clock-invariant work hoisted. Held at 0 allocs/op.
func BenchmarkSweepLadder(b *testing.B) {
	m := testModel()
	a := fullActivity()
	ladder := make([]float64, 64)
	for i := range ladder {
		ladder[i] = 500 + float64(i)*15
	}
	totals := make([]float64, len(ladder))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.SweepLadderInto(&a, ladder, totals); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(ladder)), "rungs/op")
}

// BenchmarkSweepLadderScalar is the ladder's oracle timed: the full
// estimate re-derived at every rung.
func BenchmarkSweepLadderScalar(b *testing.B) {
	m := testModel()
	a := fullActivity()
	ladder := make([]float64, 64)
	for i := range ladder {
		ladder[i] = 500 + float64(i)*15
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, clock := range ladder {
			pa := a
			pa.ClockMHz = clock
			bd, err := m.Estimate(pa)
			if err != nil {
				b.Fatal(err)
			}
			sink += bd.Total()
		}
	}
	_ = sink
	b.ReportMetric(float64(len(ladder)), "rungs/op")
}
