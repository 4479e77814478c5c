// Package qp provides the numerical machinery of the tuning pipeline:
// dense least squares, the cubic-minus-quadratic DVFS curve fit of Eq. (3),
// and the box-and-order-constrained quadratic program of Eq. (14), solved
// with projected gradient descent and Dykstra's alternating projections.
// Everything is stdlib-only.
package qp

import (
	"fmt"
	"math"
)

// SolveLinear solves the square system A x = b by Gaussian elimination with
// partial pivoting. A and b are not modified.
func SolveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, fmt.Errorf("qp: bad system dimensions (%d rows, %d rhs)", n, len(b))
	}
	// Working copy.
	m := make([][]float64, n)
	for i := range m {
		if len(a[i]) != n {
			return nil, fmt.Errorf("qp: row %d has %d columns, want %d", i, len(a[i]), n)
		}
		m[i] = append(append(make([]float64, 0, n+1), a[i]...), b[i])
	}
	for col := 0; col < n; col++ {
		// Pivot.
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[p][col]) {
				p = r
			}
		}
		if math.Abs(m[p][col]) < 1e-14 {
			return nil, fmt.Errorf("qp: singular system at column %d", col)
		}
		m[col], m[p] = m[p], m[col]
		// Eliminate.
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			if f == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := m[i][n]
		for c := i + 1; c < n; c++ {
			s -= m[i][c] * x[c]
		}
		x[i] = s / m[i][i]
	}
	return x, nil
}

// LeastSquares solves min ||A x - b||_2 for a dense m x n matrix (m >= n)
// via the normal equations. Adequate for the small, well-scaled systems the
// tuning pipeline produces.
func LeastSquares(a [][]float64, b []float64) ([]float64, error) {
	m := len(a)
	if m == 0 || len(b) != m {
		return nil, fmt.Errorf("qp: bad least-squares dimensions")
	}
	n := len(a[0])
	if m < n {
		return nil, fmt.Errorf("qp: underdetermined system (%d rows, %d unknowns)", m, n)
	}
	ata := make([][]float64, n)
	atb := make([]float64, n)
	for i := 0; i < n; i++ {
		ata[i] = make([]float64, n)
	}
	for r := 0; r < m; r++ {
		if len(a[r]) != n {
			return nil, fmt.Errorf("qp: ragged matrix at row %d", r)
		}
		for i := 0; i < n; i++ {
			if a[r][i] == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				ata[i][j] += a[r][i] * a[r][j]
			}
			atb[i] += a[r][i] * b[r]
		}
	}
	// Tikhonov whisper to keep nearly-collinear microbenchmark columns
	// solvable.
	for i := 0; i < n; i++ {
		ata[i][i] += 1e-9 * (1 + ata[i][i])
	}
	return SolveLinear(ata, atb)
}
