package tune

import (
	"context"

	"accelwattch/internal/engine"
	"accelwattch/internal/obs"
	"accelwattch/internal/silicon"
)

// Exec is a testbench bound to an execution context: a worker pool of
// testbench replicas plus a cancellation context. Every tuning and
// evaluation stage is a map then a fold. The map fans the stage's
// measurements out across the pool (Map, MeasureAll) and returns what they
// computed in input order; the fold is the stage's sequential fitting
// logic, which reads those results by position and makes every skip,
// quarantine and abort decision in input order — which is what makes a
// parallel run bit-identical to a sequential one at any worker count.
type Exec struct {
	ctx  context.Context
	pool *engine.Pool[*Testbench]

	// span, when set via WithSpan, is the parent (typically the session
	// root) that stage spans opened through StageSpan nest under.
	span *obs.Span
}

// NewExec builds an execution engine over tb with the given worker count
// (values < 1 mean 1). A nil ctx means context.Background(). Workers beyond
// the first get replicas of tb via Testbench.Replicate; call it after
// UseMeter so replicas wrap the installed meter. Each replica is stamped
// with its pool index (tb itself is worker 0) so measurement spans land on
// per-worker trace tracks.
func NewExec(ctx context.Context, tb *Testbench, workers int) (*Exec, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	next := 0
	pool, err := engine.NewPool(tb, workers, func() (*Testbench, error) {
		r, err := tb.Replicate()
		if err != nil {
			return nil, err
		}
		next++
		r.Worker = next
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	return &Exec{ctx: ctx, pool: pool}, nil
}

// Sequential wraps the testbench in a single-worker engine, the drop-in
// equivalent of the historical direct-call path.
func (tb *Testbench) Sequential() *Exec {
	return &Exec{ctx: context.Background(), pool: engine.PoolOf(tb)}
}

// WithSpan parents all stage spans this engine opens under sp — callers
// holding a session root span install it here so the exported trace nests
// session → stage → workload. Returns ex for chaining; nil clears it.
func (ex *Exec) WithSpan(sp *obs.Span) *Exec {
	ex.span = sp
	return ex
}

// StageSpan opens a pipeline-stage span, as a child of the engine's parent
// span when one is installed and as a root span otherwise.
func (ex *Exec) StageSpan(name string) *obs.Span {
	if ex.span != nil {
		return ex.span.Child(name)
	}
	return obs.StartSpan(name)
}

// TB returns the primary testbench (the one the engine was built from).
func (ex *Exec) TB() *Testbench { return ex.pool.Primary() }

// Workers returns the pool size.
func (ex *Exec) Workers() int { return ex.pool.Workers() }

// Map fans fn over items across ex's replica pool. Results arrive in input
// order and the reported error on failure is the lowest-index one — exactly
// what a sequential loop over items would produce.
func Map[T, V any](ex *Exec, items []T, fn func(*Testbench, T) (V, error)) ([]V, error) {
	return engine.Map(ex.ctx, ex.pool, items, func(_ context.Context, tb *Testbench, it T) (V, error) {
		return fn(tb, it)
	})
}

// Point is one operating point: a workload at a core clock in MHz (0 means
// the base clock).
type Point struct {
	W   Workload
	MHz float64
}

// Reading is what measuring a Point gave: the measurement, or the
// measurement failure (Err) that the fold skips the point over or aborts on.
type Reading struct {
	M   *silicon.Measurement
	Err error
}

// MeasureAll is the map step of the sweep stages: it measures every point
// across the pool and returns the readings in input order. A measurement
// failure is a reading; any other error (a failed trace, a clock out of
// range) ends the map, and the lowest-index one is returned.
func (ex *Exec) MeasureAll(pts []Point) ([]Reading, error) {
	return Map(ex, pts, func(tb *Testbench, p Point) (Reading, error) {
		m, err := tb.Measure(p.W, p.MHz)
		if err != nil && !IsMeasurementFailure(err) {
			return Reading{}, err
		}
		return Reading{m, err}, nil
	})
}
