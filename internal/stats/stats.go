// Package stats provides the error and correlation metrics the paper
// reports: mean absolute percentage error (MAPE) with a 95% confidence
// interval, the Pearson r coefficient, and geometric means.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// MAPE returns the mean absolute percentage error (in percent) of estimates
// against measurements, as defined in [9] of the paper.
func MAPE(measured, estimated []float64) (float64, error) {
	if len(measured) != len(estimated) || len(measured) == 0 {
		return 0, fmt.Errorf("stats: MAPE needs matched non-empty series")
	}
	s := 0.0
	for i := range measured {
		if measured[i] == 0 {
			return 0, fmt.Errorf("stats: MAPE undefined for zero measurement at %d", i)
		}
		s += math.Abs(estimated[i]-measured[i]) / math.Abs(measured[i])
	}
	return 100 * s / float64(len(measured)), nil
}

// MAPEWithCI returns MAPE plus the half-width of its 95% confidence
// interval (normal approximation over the per-sample absolute percentage
// errors), matching the paper's "9.2 +/- 3.12%" style of reporting.
func MAPEWithCI(measured, estimated []float64) (mape, ci float64, err error) {
	mape, err = MAPE(measured, estimated)
	if err != nil {
		return 0, 0, err
	}
	n := float64(len(measured))
	if n < 2 {
		return mape, 0, nil
	}
	mean := mape / 100
	varSum := 0.0
	for i := range measured {
		e := math.Abs(estimated[i]-measured[i])/math.Abs(measured[i]) - mean
		varSum += e * e
	}
	sd := math.Sqrt(varSum / (n - 1))
	return mape, 100 * 1.96 * sd / math.Sqrt(n), nil
}

// MaxAPE returns the maximum absolute percentage error (in percent).
func MaxAPE(measured, estimated []float64) (float64, error) {
	if len(measured) != len(estimated) || len(measured) == 0 {
		return 0, fmt.Errorf("stats: MaxAPE needs matched non-empty series")
	}
	m := 0.0
	for i := range measured {
		if measured[i] == 0 {
			return 0, fmt.Errorf("stats: MaxAPE undefined for zero measurement at %d", i)
		}
		e := math.Abs(estimated[i]-measured[i]) / math.Abs(measured[i])
		if e > m {
			m = e
		}
	}
	return 100 * m, nil
}

// Pearson returns the Pearson correlation coefficient r.
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) || len(x) < 2 {
		return 0, fmt.Errorf("stats: Pearson needs matched series of length >= 2")
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0, fmt.Errorf("stats: Pearson undefined for a constant series")
	}
	return cov / math.Sqrt(vx*vy), nil
}

// Geomean returns the geometric mean of positive values — Eq. (8) combines
// per-microbenchmark idle-SM estimates this way.
func Geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: geomean of empty set")
	}
	s := 0.0
	for i, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("stats: geomean needs positive values, got %g at %d", x, i)
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs))), nil
}

// Median returns the middle value (mean of the two middle values for even
// lengths). The input slice is not modified. Medians are the workhorse of
// the fault-hardened measurement path: a handful of wild NVML samples
// cannot move them.
func Median(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: median of empty set")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2], nil
	}
	return (s[n/2-1] + s[n/2]) / 2, nil
}

// MAD returns the median absolute deviation around the median — the robust
// scale estimate used to reject outlier samples (multiply by 1.4826 for a
// consistent sigma estimate under Gaussian noise).
func MAD(xs []float64) (med, mad float64, err error) {
	med, err = Median(xs)
	if err != nil {
		return 0, 0, err
	}
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	mad, err = Median(dev)
	return med, mad, err
}

// AllFinite reports whether every value is neither NaN nor infinite.
func AllFinite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
