package qp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveLinearKnown(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Errorf("got %v, want [1 3]", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	if _, err := SolveLinear(a, []float64{1, 2}); err == nil {
		t.Error("singular system should fail")
	}
}

func TestSolveLinearNeedsPivoting(t *testing.T) {
	a := [][]float64{{0, 1}, {1, 0}}
	x, err := SolveLinear(a, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 7 || x[1] != 3 {
		t.Errorf("got %v, want [7 3]", x)
	}
}

// Property: least squares recovers the generator of consistent systems.
func TestQuickLeastSquaresRecovery(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		m := n + 3 + r.Intn(10)
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = r.Float64()*4 - 2
		}
		a := make([][]float64, m)
		b := make([]float64, m)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = r.NormFloat64()
			}
			for j := range a[i] {
				b[i] += a[i][j] * xTrue[j]
			}
		}
		x, err := LeastSquares(a, b)
		if err != nil {
			return false
		}
		for j := range x {
			if math.Abs(x[j]-xTrue[j]) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFitCubicNoQuadRecovery(t *testing.T) {
	want := CubicFit{Beta: 23.5, Tau: 31.2, Const: 32.5}
	var fs, ps []float64
	for f := 0.2; f <= 1.6; f += 0.1 {
		fs = append(fs, f)
		ps = append(ps, want.Eval(f))
	}
	got, err := FitCubicNoQuad(fs, ps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Beta-want.Beta) > 1e-6 || math.Abs(got.Tau-want.Tau) > 1e-6 ||
		math.Abs(got.Const-want.Const) > 1e-6 {
		t.Errorf("got %+v, want %+v", got, want)
	}
	if m := FitMAPE(got.Eval, fs, ps); m > 1e-6 {
		t.Errorf("perfect fit has MAPE %g", m)
	}
}

func TestFitLinearOnCubicUnderestimatesIntercept(t *testing.T) {
	// The legacy GPUWattch methodology (Section 4.2): fitting a line to a
	// DVFS-curved power profile and extrapolating to f=0 underestimates
	// the true constant power.
	truth := CubicFit{Beta: 40, Tau: 30, Const: 32.5}
	var fs, ps []float64
	for f := 0.4; f <= 1.6; f += 0.2 {
		fs = append(fs, f)
		ps = append(ps, truth.Eval(f))
	}
	line, err := FitLinear(fs, ps)
	if err != nil {
		t.Fatal(err)
	}
	if line.Intercept >= truth.Const {
		t.Errorf("linear intercept %.2f should underestimate the true constant %.2f",
			line.Intercept, truth.Const)
	}
}

func tinyProblem() (*Problem, []float64) {
	// 3 unknowns, true x = [0.5, 2, 1]; rows chosen well-conditioned.
	xTrue := []float64{0.5, 2, 1}
	a := [][]float64{
		{10, 1, 0},
		{0, 5, 1},
		{2, 0, 8},
		{3, 3, 3},
		{1, 7, 2},
	}
	b := make([]float64, len(a))
	w := make([]float64, len(a))
	for i := range a {
		for j := range a[i] {
			b[i] += a[i][j] * xTrue[j]
		}
		w[i] = 1 / b[i]
	}
	return &Problem{
		A: a, B: b, W: w,
		Lo: []float64{0.001, 0.001, 0.001},
		Hi: []float64{1000, 1000, 1000},
	}, xTrue
}

func TestQPUnconstrainedRecovery(t *testing.T) {
	p, xTrue := tinyProblem()
	res, err := Solve(p, []float64{1, 1, 1}, Options{MaxIters: 5000, Tol: 1e-14, DykstraIters: 8})
	if err != nil {
		t.Fatal(err)
	}
	for j := range xTrue {
		if math.Abs(res.X[j]-xTrue[j]) > 1e-3 {
			t.Errorf("x[%d] = %.5f, want %.5f", j, res.X[j], xTrue[j])
		}
	}
}

func TestQPRespectsBox(t *testing.T) {
	p, _ := tinyProblem()
	p.Lo = []float64{1, 1, 1} // force x0 >= 1 though the optimum is 0.5
	res, err := Solve(p, []float64{2, 2, 2}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !p.Feasible(res.X, 1e-6) {
		t.Errorf("solution infeasible: %v", res.X)
	}
	if res.X[0] < 1-1e-9 {
		t.Errorf("x[0] = %v violates lower bound", res.X[0])
	}
}

func TestQPRespectsOrders(t *testing.T) {
	p, _ := tinyProblem()
	// Force x1 <= 0.6*x0 even though the optimum has x1 = 4*x0.
	p.Orders = []Order{{I: 1, J: 0, Ratio: 0.6}}
	res, err := Solve(p, []float64{1, 1, 1}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.X[1] > 0.6*res.X[0]+1e-6 {
		t.Errorf("order constraint violated: x1=%v > 0.6*x0=%v", res.X[1], 0.6*res.X[0])
	}
}

func TestQPObjectiveDecreases(t *testing.T) {
	p, _ := tinyProblem()
	x0 := []float64{10, 10, 10}
	res, err := Solve(p, x0, Options{MaxIters: 1000, Tol: 0, DykstraIters: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective >= p.Objective(x0) {
		t.Errorf("solver did not improve the objective: %v -> %v", p.Objective(x0), res.Objective)
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i] > res.History[i-1]+1e-12 {
			t.Errorf("objective increased between checkpoints: %v", res.History)
			break
		}
	}
}

func TestQPBadInputs(t *testing.T) {
	p, _ := tinyProblem()
	if _, err := Solve(p, []float64{1}, DefaultOptions()); err == nil {
		t.Error("wrong-size start accepted")
	}
	p.Lo[0] = 10
	p.Hi[0] = 1
	if _, err := Solve(p, []float64{1, 1, 1}, DefaultOptions()); err == nil {
		t.Error("inverted bounds accepted")
	}
}

// Property: Dykstra projection always lands in the feasible set.
func TestQuickProjectionFeasible(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, _ := tinyProblem()
		p.Orders = []Order{{I: 0, J: 1, Ratio: 0.5 + r.Float64()}, {I: 2, J: 0, Ratio: 0.5 + r.Float64()}}
		x := []float64{r.Float64() * 2000, r.Float64() * 2000, r.Float64() * 2000}
		p.project(x, 40)
		return p.Feasible(x, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: preconditioned solve matches direct least squares on
// well-conditioned unconstrained problems.
func TestQuickQPMatchesLstsq(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(3)
		m := n + 5
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = 0.1 + r.Float64()*3
		}
		a := make([][]float64, m)
		b := make([]float64, m)
		w := make([]float64, m)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = r.Float64() * 10
			}
			for j := range a[i] {
				b[i] += a[i][j] * xTrue[j]
			}
			if b[i] == 0 {
				b[i] = 1
			}
			w[i] = 1
		}
		lo := make([]float64, n)
		hi := make([]float64, n)
		for j := range lo {
			lo[j], hi[j] = 1e-4, 1e4
		}
		p := &Problem{A: a, B: b, W: w, Lo: lo, Hi: hi}
		res, err := Solve(p, ones(n), Options{MaxIters: 8000, Tol: 1e-16, DykstraIters: 4})
		if err != nil {
			return false
		}
		for j := range xTrue {
			if math.Abs(res.X[j]-xTrue[j]) > 2e-2*(1+xTrue[j]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func ones(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	return x
}
