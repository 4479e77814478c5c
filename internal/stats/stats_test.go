package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMAPEKnown(t *testing.T) {
	m, err := MAPE([]float64{100, 200}, []float64{110, 180})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-10) > 1e-9 {
		t.Errorf("MAPE = %v, want 10", m)
	}
}

func TestMAPEErrors(t *testing.T) {
	if _, err := MAPE(nil, nil); err == nil {
		t.Error("empty series accepted")
	}
	if _, err := MAPE([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched series accepted")
	}
	if _, err := MAPE([]float64{0}, []float64{1}); err == nil {
		t.Error("zero measurement accepted")
	}
}

func TestMAPEWithCI(t *testing.T) {
	meas := []float64{100, 100, 100, 100}
	est := []float64{105, 95, 110, 90}
	m, ci, err := MAPEWithCI(meas, est)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-7.5) > 1e-9 {
		t.Errorf("MAPE = %v, want 7.5", m)
	}
	if ci <= 0 || ci > 10 {
		t.Errorf("CI = %v out of plausible range", ci)
	}
	// A constant error has zero CI width.
	_, ci0, _ := MAPEWithCI([]float64{10, 20}, []float64{11, 22})
	if ci0 > 1e-9 {
		t.Errorf("uniform relative error should have zero CI, got %v", ci0)
	}
}

func TestMaxAPE(t *testing.T) {
	m, err := MaxAPE([]float64{100, 200}, []float64{110, 150})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-25) > 1e-9 {
		t.Errorf("MaxAPE = %v, want 25", m)
	}
}

func TestPearsonKnown(t *testing.T) {
	r, err := Pearson([]float64{1, 2, 3, 4}, []float64{2, 4, 6, 8})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1) > 1e-12 {
		t.Errorf("perfect correlation = %v", r)
	}
	r, _ = Pearson([]float64{1, 2, 3, 4}, []float64{8, 6, 4, 2})
	if math.Abs(r+1) > 1e-12 {
		t.Errorf("perfect anticorrelation = %v", r)
	}
	if _, err := Pearson([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("constant series accepted")
	}
}

func TestGeomean(t *testing.T) {
	g, err := Geomean([]float64{1, 100})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-10) > 1e-9 {
		t.Errorf("geomean = %v, want 10", g)
	}
	if _, err := Geomean([]float64{1, -1}); err == nil {
		t.Error("negative value accepted")
	}
	if _, err := Geomean(nil); err == nil {
		t.Error("empty set accepted")
	}
}

func TestMeanAndRelErr(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("mean wrong")
	}
	if Mean(nil) != 0 {
		t.Error("empty mean should be 0")
	}
}

// Property: MAPE is scale invariant and zero only for exact estimates.
func TestQuickMAPEProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		meas := make([]float64, n)
		est := make([]float64, n)
		for i := range meas {
			meas[i] = 1 + r.Float64()*100
			est[i] = meas[i] * (0.5 + r.Float64())
		}
		m1, err := MAPE(meas, est)
		if err != nil || m1 < 0 {
			return false
		}
		// Scale both series: MAPE unchanged.
		k := 3.7
		meas2 := make([]float64, n)
		est2 := make([]float64, n)
		for i := range meas {
			meas2[i] = meas[i] * k
			est2[i] = est[i] * k
		}
		m2, _ := MAPE(meas2, est2)
		if math.Abs(m1-m2) > 1e-9 {
			return false
		}
		mExact, _ := MAPE(meas, meas)
		return mExact == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: geomean lies between min and max.
func TestQuickGeomeanBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		xs := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range xs {
			xs[i] = 0.01 + r.Float64()*100
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		g, err := Geomean(xs)
		if err != nil {
			return false
		}
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Pearson is invariant under positive affine transforms.
func TestQuickPearsonAffineInvariance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(20)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
			y[i] = x[i] + r.NormFloat64()*0.5
		}
		r1, err := Pearson(x, y)
		if err != nil {
			return true // degenerate draw
		}
		y2 := make([]float64, n)
		for i := range y {
			y2[i] = 2.5*y[i] + 7
		}
		r2, _ := Pearson(x, y2)
		return math.Abs(r1-r2) < 1e-9 && r1 >= -1-1e-12 && r1 <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Degenerate measured series must never produce ±Inf: the aggregate
// metrics report errors.
func TestDegenerateMeasuredSeries(t *testing.T) {
	if _, err := MAPE([]float64{10, 0}, []float64{10, 5}); err == nil {
		t.Error("MAPE must error on a zero measurement, not return Inf")
	}
	if _, _, err := MAPEWithCI([]float64{10, 0}, []float64{10, 5}); err == nil {
		t.Error("MAPEWithCI must error on a zero measurement")
	}
	if _, err := MaxAPE([]float64{0}, []float64{5}); err == nil {
		t.Error("MaxAPE must error on a zero measurement, not return Inf")
	}
	if _, err := Pearson([]float64{3, 3, 3}, []float64{1, 2, 3}); err == nil {
		t.Error("Pearson must error on a constant series, not divide by zero")
	}
}
