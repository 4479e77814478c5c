package tune

import (
	"fmt"

	"accelwattch/internal/core"
	"accelwattch/internal/qp"
	"accelwattch/internal/stats"
)

// StartPoint names the two QP starting points of Section 5.4.
type StartPoint int

const (
	StartOnes StartPoint = iota
	StartFermi
)

func (s StartPoint) String() string {
	if s == StartOnes {
		return "ones"
	}
	return "fermi"
}

// DynamicFit is the outcome of the Eq. (14) optimisation for one variant
// and one starting point.
type DynamicFit struct {
	Variant    Variant
	Start      StartPoint
	Scale      [core.NumDynComponents]float64
	TrainMAPE  float64 // MAPE across the tuning microbenchmarks
	Objective  float64
	Iterations int
	// Fallback is set when the QP solver failed and the scaling factors
	// are the (projected) starting point instead of a solved optimum.
	Fallback bool
}

// Sample is one workload as a variant sees it: its activity vector and its
// power measured at the base clock, or the measurement failure (ActErr,
// PowerErr) that kept either from being taken. A map step takes samples;
// the fold that reads them decides whether a failed one is skipped,
// reported or fatal.
type Sample struct {
	Name     string
	Activity core.Activity
	ActErr   error
	PowerW   float64
	PowerErr error
}

// sampleVariants is the map step of dynamic tuning for one microbenchmark:
// its activity under every variant, then its base-clock measurement. Only a
// hard error is returned as an error.
func (tb *Testbench) sampleVariants(w Workload) ([NumVariants]Sample, error) {
	var out [NumVariants]Sample
	for _, v := range Variants() {
		a, err := tb.Activity(w, v)
		if err != nil && !IsMeasurementFailure(err) {
			return out, err
		}
		out[v] = Sample{Name: w.Name, Activity: a, ActErr: err}
	}
	m, err := tb.Measure(w, 0)
	if err != nil && !IsMeasurementFailure(err) {
		return out, err
	}
	for v := range out {
		if out[v].PowerErr = err; err == nil {
			out[v].PowerW = m.AvgPowerW
		}
	}
	return out, nil
}

// buildProblem assembles the Eq. (13) system for one variant: one row per
// microbenchmark sample, one column per dynamic component, with the fixed
// static / idle-SM / constant contributions moved to the right-hand side
// (they carry scaling factor 1 by construction).
func (tb *Testbench) buildProblem(samples []Sample, v Variant, m *core.Model) (*qp.Problem, []core.Activity, []float64, error) {
	var (
		rows [][]float64
		rhs  []float64
		wts  []float64
		acts []core.Activity
		meas []float64
	)
	for _, s := range samples {
		if s.ActErr != nil {
			// An unprofilable microbenchmark drops out of this
			// variant's tuning set; the QP tunes over the survivors.
			continue
		}
		if s.PowerErr != nil {
			// Every variant's sample carries the same failure; record the
			// drop (constant reason — whichever variant gets here first
			// writes the same thing).
			tb.quarantine(s.Name, "measurement failed; dropped from tuning set", qcDropped)
			continue
		}
		a := s.Activity
		if !stats.AllFinite(s.PowerW) || s.PowerW <= 0 {
			tb.quarantine(s.Name, fmt.Sprintf("non-physical measured power %g W", s.PowerW), qcNonPhysical)
			continue
		}
		// Fixed terms at x=1: evaluate the model with zero dynamic
		// scales.
		fixed := *m
		for i := range fixed.Scale {
			fixed.Scale[i] = 0
		}
		fb, err := fixed.Estimate(a)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("tune: %s: %w", s.Name, err)
		}
		timeS := a.Cycles / (tb.Arch.BaseClockMHz * 1e6)
		row := make([]float64, core.NumDynComponents)
		rowOK := stats.AllFinite(fb.Total(), timeS) && timeS > 0
		for i := 0; i < core.NumDynComponents; i++ {
			row[i] = a.Counts[i] * m.BaseEnergyPJ[i] * 1e-12 / timeS
			rowOK = rowOK && stats.AllFinite(row[i])
		}
		if !rowOK {
			tb.quarantine(s.Name, "non-finite QP row", qcNonFinite)
			continue
		}
		rows = append(rows, row)
		rhs = append(rhs, s.PowerW-fb.Total())
		wts = append(wts, 1/s.PowerW) // minimise relative error
		acts = append(acts, a)
		meas = append(meas, s.PowerW)
	}

	if len(rows) == 0 {
		return nil, nil, nil, fmt.Errorf("tune: no microbenchmark survived measurement for variant %v", v)
	}

	n := core.NumDynComponents
	lo := make([]float64, n)
	hi := make([]float64, n)
	for i := range lo {
		lo[i] = 0.001
		hi[i] = 1000
	}
	var orders []qp.Order
	for _, oc := range core.OrderConstraints {
		i, j := int(oc[0]), int(oc[1])
		// E_i x_i <= E_j x_j  <=>  x_i <= (E_j/E_i) x_j.
		orders = append(orders, qp.Order{I: i, J: j, Ratio: m.BaseEnergyPJ[j] / m.BaseEnergyPJ[i]})
	}
	return &qp.Problem{A: rows, B: rhs, W: wts, Lo: lo, Hi: hi, Orders: orders}, acts, meas, nil
}

// startVector builds the initial scaling factors for a starting point.
func startVector(sp StartPoint, base [core.NumDynComponents]float64) []float64 {
	x := make([]float64, core.NumDynComponents)
	if sp == StartOnes {
		for i := range x {
			x[i] = 1
		}
		return x
	}
	fermi := core.FermiEnergiesPJ()
	for i := range x {
		x[i] = fermi[i] / base[i]
	}
	return x
}

// TuneDynamic solves Eq. (14) for one variant over the microbenchmarks'
// samples under that variant and returns the fits from both starting
// points, ranked (Section 5.4 adopts the Fermi-start model when it wins,
// which the paper observed on Volta).
func (tb *Testbench) TuneDynamic(samples []Sample, v Variant, m *core.Model, opts qp.Options) (best, other *DynamicFit, err error) {
	prob, acts, meas, err := tb.buildProblem(samples, v, m)
	if err != nil {
		return nil, nil, err
	}
	fits := make([]*DynamicFit, 0, 2)
	for _, sp := range []StartPoint{StartFermi, StartOnes} {
		x0 := startVector(sp, m.BaseEnergyPJ)
		res, err := qp.Solve(prob, x0, opts)
		fit := &DynamicFit{Variant: v, Start: sp}
		if err != nil {
			// Solver failure (a poisoned problem that slipped past the
			// guards, or a numerically-degenerate system): fall back to
			// the starting point itself. The Fermi start is the paper's
			// physically-motivated prior, so the model stays usable —
			// just untuned — and the failure is visible via Fallback.
			tb.quarantine(fmt.Sprintf("qp-%v-%v", v, sp), fmt.Sprintf("solver failed: %v", err), qcQPSolver)
			mQPSolves.With(v.String(), "fallback").Inc()
			fit.Fallback = true
			copy(fit.Scale[:], x0)
			fit.Objective = prob.Objective(x0)
		} else {
			mQPSolves.With(v.String(), "ok").Inc()
			mQPIterations.With(v.String()).Add(float64(res.Iterations))
			fit.Objective = res.Objective
			fit.Iterations = res.Iterations
			copy(fit.Scale[:], res.X)
		}

		// Training MAPE: evaluate the tuned model over the tuning set.
		tuned := *m
		tuned.Scale = fit.Scale
		var est []float64
		for _, a := range acts {
			p, err := tuned.EstimatePower(a)
			if err != nil {
				return nil, nil, err
			}
			est = append(est, p)
		}
		fit.TrainMAPE, err = stats.MAPE(meas, est)
		if err != nil {
			return nil, nil, err
		}
		fits = append(fits, fit)
	}
	if fits[0].TrainMAPE <= fits[1].TrainMAPE {
		return fits[0], fits[1], nil
	}
	return fits[1], fits[0], nil
}
