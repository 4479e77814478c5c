package tune

import (
	"fmt"

	"accelwattch/internal/qp"
	"accelwattch/internal/stats"
	"accelwattch/internal/ubench"
)

// FreqSweep describes the clock ladder used for the DVFS experiments. The
// default covers the GV100's supported range as in Figure 2.
type FreqSweep struct {
	MinMHz, MaxMHz, StepMHz float64
}

// DefaultSweep returns a 200 MHz-step ladder inside the device's range.
func DefaultSweep(minMHz, maxMHz float64) FreqSweep {
	return FreqSweep{MinMHz: minMHz, MaxMHz: maxMHz, StepMHz: 200}
}

// Points lists the sweep frequencies: MinMHz, MinMHz+StepMHz, ... up to
// MaxMHz inclusive (with a small tolerance for float rounding on the last
// rung). Rungs are generated by index rather than by accumulating the step
// into a float, so a step below one ULP of the endpoints cannot stall the
// loop; degenerate ladders (non-positive step, inverted range, non-finite
// bounds) yield nil instead of spinning.
func (fs FreqSweep) Points() []float64 {
	return fs.AppendPoints(nil)
}

// AppendPoints is Points appending into a caller-provided slice (typically a
// pooled buffer resliced to zero length), so steady-state sweep evaluation
// does not allocate a fresh ladder per request. It returns dst unchanged for
// degenerate ladders.
func (fs FreqSweep) AppendPoints(dst []float64) []float64 {
	if !(fs.StepMHz > 0) || !(fs.MaxMHz >= fs.MinMHz) {
		return dst
	}
	nf := (fs.MaxMHz - fs.MinMHz) / fs.StepMHz
	if !(nf < 1<<30) { // also rejects NaN and +Inf
		return dst
	}
	n := int(nf + 1e-9)
	for i := 0; i <= n; i++ {
		dst = append(dst, fs.MinMHz+float64(i)*fs.StepMHz)
	}
	return dst
}

// DVFSCurve is one workload's frequency sweep with its Eq. (3) fit —
// the raw material of Figure 2.
type DVFSCurve struct {
	Name    string
	FreqGHz []float64
	PowerW  []float64
	Fit     qp.CubicFit
	FitMAPE float64 // how well Eq. (3) matches the measurements
	LineFit qp.LinearFit
}

// ConstPowerResult is the outcome of the Section 4.2 methodology.
type ConstPowerResult struct {
	Curves []DVFSCurve
	// ConstW is the estimated constant power: the mean y-intercept of
	// the Eq. (3) fits (32.5 W on the paper's GV100).
	ConstW float64
	// LegacyConstW is what the GPUWattch linear-extrapolation
	// methodology would report — negative on DVFS-capable GPUs.
	LegacyConstW float64
}

// EstimateConstPower runs the five DVFS workloads of Figure 2 across the
// frequency ladder, fits each to Eq. (3), and estimates constant power from
// the y-intercepts. It also reports the (broken) legacy linear estimate for
// the GPUWattch comparison. Every (workload, frequency) point is measured
// across the pool first; the fits then read the readings in ladder order.
func (ex *Exec) EstimateConstPower(sweep FreqSweep) (*ConstPowerResult, error) {
	tb := ex.TB()
	benches := ubench.DVFSSuite(tb.Arch, tb.Scale)
	mhz := sweep.Points()
	var pts []Point
	for _, b := range benches {
		w := FromBench(b)
		for _, f := range mhz {
			pts = append(pts, Point{w, f})
		}
	}
	rs, err := ex.MeasureAll(pts)
	if err != nil {
		return nil, err
	}

	res := &ConstPowerResult{}
	var intercepts, lineIntercepts []float64
	for i, b := range benches {
		// The fit survives holes in the ladder: failed points are skipped.
		fs, ps := survivors(mhz, rs[i*len(mhz):][:len(mhz)])
		// Eq. (3) has 3 parameters; demand at least one extra point so a
		// degraded sweep cannot produce an exactly-interpolating fit with
		// a meaningless intercept.
		if len(fs) < 4 {
			tb.quarantine(b.Name, fmt.Sprintf("only %d/%d DVFS points survived", len(fs), len(mhz)), qcDVFSHoles)
			continue
		}
		fit, err := tb.fitCubic(fs, ps)
		if err != nil {
			return nil, fmt.Errorf("tune: DVFS fit for %s: %w", b.Name, err)
		}
		lfit, err := tb.fitLinear(fs, ps)
		if err != nil {
			return nil, err
		}
		res.Curves = append(res.Curves, DVFSCurve{
			Name:    b.Name,
			FreqGHz: fs,
			PowerW:  ps,
			Fit:     fit,
			FitMAPE: qp.FitMAPE(fit.Eval, fs, ps),
			LineFit: lfit,
		})
		intercepts = append(intercepts, fit.Const)
		lineIntercepts = append(lineIntercepts, lfit.Intercept)
	}
	if len(intercepts) == 0 {
		return nil, fmt.Errorf("tune: no DVFS workload survived measurement; cannot estimate constant power")
	}
	res.ConstW = stats.Mean(intercepts)
	res.LegacyConstW = stats.Mean(lineIntercepts)
	if res.ConstW <= 0 {
		return nil, fmt.Errorf("tune: constant power estimate %.2f W is non-positive; Eq. (3) fit failed", res.ConstW)
	}
	return res, nil
}

// survivors returns the points of a clock ladder whose readings succeeded
// with a finite power, as frequencies in GHz and powers in W.
func survivors(mhz []float64, rs []Reading) (fGHz, powerW []float64) {
	for j, f := range mhz {
		if rs[j].Err != nil || !stats.AllFinite(rs[j].M.AvgPowerW) {
			continue
		}
		fGHz = append(fGHz, f/1000)
		powerW = append(powerW, rs[j].M.AvgPowerW)
	}
	return fGHz, powerW
}
