package tune

import (
	"fmt"

	"accelwattch/internal/core"
	"accelwattch/internal/stats"
	"accelwattch/internal/ubench"
)

// DivergenceFit records the per-mix-category static model construction of
// Sections 4.4-4.5.
type DivergenceFit struct {
	Mix              core.MixCategory
	StaticFirstLaneW float64 // tau*f0 from the y=1 frequency sweep
	Static32LanesW   float64 // tau*f0 from the y=32 frequency sweep
	HalfWarp         bool    // whether the measured y-sweep shows the sawtooth
	MeasuredYSweep   []float64
	YSweepLanes      []int
	Model            core.DivModel
}

// staticFreqs is the reduced ladder used for the per-y Eq. (3) fits.
func staticFreqs(tb *Testbench) []float64 {
	min, max := tb.Arch.MinClockMHz, tb.Arch.MaxClockMHz
	var out []float64
	for i := 0; i < 6; i++ {
		out = append(out, min+(max-min)*float64(i)/5)
	}
	return out
}

// divSweepLanes is the y-sweep of Figure 4, measured at the base clock.
var divSweepLanes = []int{4, 8, 12, 16, 20, 24, 28, 32}

// staticAt fits one divergence microbenchmark's frequency sweep (its
// readings at freqs) and returns the static power (the tau*f term) at the
// base clock.
func (tb *Testbench) staticAt(mix core.MixCategory, lanes int, freqs []float64, rs []Reading) (float64, error) {
	fs, ps := survivors(freqs, rs) // tolerate holes in the reduced ladder
	if len(fs) < 4 {
		return 0, fmt.Errorf("tune: static fit %v y=%d: only %d points survived: %w",
			mix, lanes, len(fs), ErrMeasurement)
	}
	fit, err := tb.fitCubic(fs, ps)
	if err != nil {
		return 0, fmt.Errorf("tune: static fit %v y=%d: %w", mix, lanes, err)
	}
	st := fit.StaticAt(tb.Arch.BaseClockMHz / 1000)
	if st < 0 {
		// Leakage is non-negative by construction; a small negative tau
		// under a noisy meter is fit jitter, clamp it.
		st = 0
	}
	return st, nil
}

// FitDivergenceModels builds the divergence-aware static models for every
// instruction-mix category: static endpoints from Eq. (3) fits at y=1 and
// y=32, and the half-warp/linear selection from the measured y-sweep at the
// base clock (the sawtooth test of Figure 4 — does power drop when the
// second half-warp activates?). Every operating point of every mix is
// measured across the pool first; the fits then read the readings per mix.
func (ex *Exec) FitDivergenceModels() ([core.NumMixCategories]core.DivModel, []DivergenceFit, error) {
	tb := ex.TB()
	var models [core.NumMixCategories]core.DivModel
	mixes := ubench.DivergenceMixes(tb.Arch)
	freqs := staticFreqs(tb)
	// Each mix measures one block of points: the y=1 and y=32 frequency
	// sweeps, then the y-sweep at the base clock.
	var pts []Point
	for _, mix := range mixes {
		for _, lanes := range []int{1, 32} {
			w := FromBench(ubench.DivergenceBench(tb.Arch, tb.Scale, mix, lanes))
			for _, mhz := range freqs {
				pts = append(pts, Point{w, mhz})
			}
		}
		for _, y := range divSweepLanes {
			pts = append(pts, Point{W: FromBench(ubench.DivergenceBench(tb.Arch, tb.Scale, mix, y))})
		}
	}
	rs, err := ex.MeasureAll(pts)
	if err != nil {
		return models, nil, err
	}

	var fits []DivergenceFit
	nf, block := len(freqs), 2*len(freqs)+len(divSweepLanes)
	for i, mix := range mixes {
		blk := rs[i*block:][:block]
		first, err := tb.staticAt(mix, 1, freqs, blk[:nf])
		if err != nil {
			if IsMeasurementFailure(err) {
				// The whole mix category degrades to the INT_FP model
				// (the inheritance pass below), like an unmeasurable
				// category would.
				tb.quarantine(fmt.Sprintf("div-%v", mix), fmt.Sprintf("y=1 static fit failed: %v", err), qcStaticFit)
				continue
			}
			return models, nil, err
		}
		full, err := tb.staticAt(mix, 32, freqs, blk[nf:2*nf])
		if err != nil {
			if IsMeasurementFailure(err) {
				tb.quarantine(fmt.Sprintf("div-%v", mix), fmt.Sprintf("y=32 static fit failed: %v", err), qcStaticFit)
				continue
			}
			return models, nil, err
		}
		if full < first {
			full = first // leakage cannot shrink with more active lanes
		}

		var ys []float64
		var lanes []int
		byLane := make(map[int]float64)
		for j, y := range divSweepLanes {
			r := blk[2*nf+j]
			if r.Err != nil || !stats.AllFinite(r.M.AvgPowerW) {
				continue // missing sweep points weaken the sawtooth test but don't kill the mix
			}
			ys = append(ys, r.M.AvgPowerW)
			lanes = append(lanes, y)
			byLane[y] = r.M.AvgPowerW
		}
		// Sawtooth detection: with half-warp execution, total power at
		// y=20 sits below the y=16 peak (Section 4.4). A small margin
		// keeps measurement noise from flipping the decision. If either
		// probe point is missing, default to the linear (no-sawtooth)
		// model — the conservative choice.
		halfWarp := false
		if p16, ok16 := byLane[16]; ok16 {
			if p20, ok20 := byLane[20]; ok20 {
				halfWarp = p20 < p16*0.995
			}
		}

		dm := core.FitDivModel(first, full, halfWarp)
		models[mix] = dm
		fits = append(fits, DivergenceFit{
			Mix:              mix,
			StaticFirstLaneW: first,
			Static32LanesW:   full,
			HalfWarp:         halfWarp,
			MeasuredYSweep:   ys,
			YSweepLanes:      lanes,
			Model:            dm,
		})
	}

	// Categories not measurable on this architecture (e.g. tensor mixes
	// on Pascal) inherit the INT_FP model.
	for i := range models {
		if models[i].FirstLaneW == 0 && models[i].AddLaneW == 0 {
			models[i] = models[core.MixIntFP]
		}
	}
	return models, fits, nil
}

// IdleSMResult is the Section 4.6 construction.
type IdleSMResult struct {
	PerIdleSMW float64   // Eq. (8): geomean across microbenchmarks
	Estimates  []float64 // per-observation estimates entering the geomean
}

// FitIdleSM estimates the static power of an idle SM from the Active/Idle
// occupancy microbenchmarks: Eq. (6) gives the per-active-SM power from the
// all-SM run, Eq. (7) the residual attributed to idle SMs, and Eq. (8)
// combines per-benchmark estimates with a geometric mean. Every occupancy
// run is measured across the pool first; the estimates then read the
// readings per body.
func (ex *Exec) FitIdleSM(constW float64) (*IdleSMResult, error) {
	tb := ex.TB()
	n := tb.Arch.NumSMs
	var ladder []int
	for _, k := range []int{n / 8, n / 4, n / 2, 3 * n / 4} {
		if k > 0 && k < n {
			ladder = append(ladder, k)
		}
	}
	bodies := []struct {
		name string
		at   func(int) ubench.Bench
	}{
		{"intmul", func(k int) ubench.Bench { return ubench.OccupancyBench(tb.Arch, tb.Scale, k) }},
		{"ffma", func(k int) ubench.Bench { return ubench.OccupancyBenchFP(tb.Arch, tb.Scale, k) }},
	}
	// Each body measures the full-occupancy run, then its ladder, all at
	// the base clock.
	var pts []Point
	for _, body := range bodies {
		pts = append(pts, Point{W: FromBench(body.at(n))})
		for _, k := range ladder {
			pts = append(pts, Point{W: FromBench(body.at(k))})
		}
	}
	rs, err := ex.MeasureAll(pts)
	if err != nil {
		return nil, err
	}

	var ests []float64
	for i, body := range bodies {
		row := rs[i*(1+len(ladder)):][:1+len(ladder)]
		if err := row[0].Err; err != nil {
			tb.quarantine("idlesm-"+body.name, fmt.Sprintf("full-occupancy measurement failed: %v", err), qcStaticFit)
			continue
		}
		perActive := (row[0].M.AvgPowerW - constW) / float64(n) // Eq. (6)
		if !stats.AllFinite(perActive) || perActive <= 0 {
			return nil, fmt.Errorf("tune: per-active-SM power non-positive for %s", body.name)
		}
		for j, k := range ladder {
			r := row[1+j]
			if r.Err != nil {
				continue // drop the failed ladder step, keep the rest
			}
			idle := r.M.AvgPowerW - constW - perActive*float64(k) // Eq. (7)
			perIdle := idle / float64(n-k)
			if stats.AllFinite(perIdle) && perIdle > 0 {
				ests = append(ests, perIdle)
			}
		}
	}
	if len(ests) == 0 {
		return nil, fmt.Errorf("tune: no positive idle-SM estimates; Eq. (7) residuals all negative")
	}
	g, err := stats.Geomean(ests)
	if err != nil {
		return nil, err
	}
	return &IdleSMResult{PerIdleSMW: g, Estimates: ests}, nil
}
