// Package engine is the concurrent execution engine behind the tuning and
// evaluation pipelines: a bounded worker pool with per-worker resource
// replicas, deterministic result ordering, and a shared singleflight
// artifact store (see store.go).
//
// The design goal is bit-identical parallelism. Every task result must be a
// pure function of its inputs — never of scheduling order — so a run at
// workers=8 produces exactly the output of workers=1. The engine's part of
// that contract:
//
//   - Map returns results in input order, whatever order workers finish in.
//   - On error, the error of the lowest-index failing item is returned,
//     which is the one sequential execution would have stopped at (items
//     are claimed in index order, so every item below the first observed
//     failure has already run to completion).
//   - Each worker owns one replica exclusively; mutable per-replica state
//     (a device's clock and temperature) is never shared across workers.
//
// The rest of the contract lives with the callers: all cross-replica state
// (memoised measurements, fault-injection RNG, quarantine counters) must be
// keyed by operating point, not by call order.
package engine

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"accelwattch/internal/obs"
)

// Pool holds one replica of a resource per worker. Replica 0 is the
// primary — the original resource the pool was built around — so a
// single-worker pool and the sequential folds that follow a fan-out run on
// the exact object the caller constructed.
type Pool[R any] struct {
	replicas []R
}

// NewPool builds a pool of `workers` replicas around a primary resource.
// replicate is called workers-1 times; it must return resources that share
// all order-independent state (artifact stores, fault state) with the
// primary while owning their mutable state (device clocks) exclusively.
// workers < 1 is treated as 1, yielding a primary-only pool.
func NewPool[R any](primary R, workers int, replicate func() (R, error)) (*Pool[R], error) {
	if workers < 1 {
		workers = 1
	}
	p := &Pool[R]{replicas: make([]R, 1, workers)}
	p.replicas[0] = primary
	for i := 1; i < workers; i++ {
		r, err := replicate()
		if err != nil {
			return nil, err
		}
		p.replicas = append(p.replicas, r)
	}
	return p, nil
}

// PoolOf wraps an existing replica set (replicas[0] is the primary).
func PoolOf[R any](replicas ...R) *Pool[R] {
	return &Pool[R]{replicas: replicas}
}

// Workers returns the pool size.
func (p *Pool[R]) Workers() int { return len(p.replicas) }

// Primary returns replica 0.
func (p *Pool[R]) Primary() R { return p.replicas[0] }

// Map runs fn over items on the pool's replicas and returns the results in
// input order. A single-replica pool runs inline with no goroutines. On
// failure the lowest-index error is returned (matching sequential abort
// semantics) and unclaimed items are skipped; the returned slice is nil.
// Context cancellation stops claiming new items and returns ctx.Err()
// unless an item error takes precedence.
func Map[R, T, V any](ctx context.Context, p *Pool[R], items []T, fn func(ctx context.Context, r R, item T) (V, error)) ([]V, error) {
	out := make([]V, len(items))
	if len(items) == 0 {
		return out, ctx.Err()
	}
	mFanouts.Inc()
	mPoolWorkers.Set(float64(p.Workers()))
	mQueueDepth.Add(float64(len(items)))
	var claimed atomic.Int64 // items removed from the queue-depth gauge
	defer func() {
		mQueueDepth.Add(float64(claimed.Load()) - float64(len(items)))
	}()

	if p.Workers() == 1 {
		busy := workerBusy(0)
		for i := range items {
			if err := ctx.Err(); err != nil {
				mCancellations.Inc()
				mTasksCancelled.Add(float64(len(items) - i))
				return nil, err
			}
			claimed.Add(1)
			mQueueDepth.Add(-1)
			start := time.Now()
			v, err := fn(ctx, p.replicas[0], items[i])
			d := time.Since(start).Seconds()
			mTaskSeconds.Observe(d)
			busy.Add(d)
			if err != nil {
				mTasksErr.Inc()
				return nil, err
			}
			mTasksOK.Inc()
			out[i] = v
		}
		return out, nil
	}

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64
		errMu    sync.Mutex
		firstErr error
		firstIdx = len(items)
		wg       sync.WaitGroup
	)
	workers := p.Workers()
	if workers > len(items) {
		workers = len(items)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, rep R) {
			defer wg.Done()
			busy := workerBusy(w)
			sp := obs.StartSpan("engine/worker").WithWorker(w)
			defer sp.End()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) || ctx.Err() != nil {
					return
				}
				claimed.Add(1)
				mQueueDepth.Add(-1)
				start := time.Now()
				v, err := fn(ctx, rep, items[i])
				d := time.Since(start).Seconds()
				mTaskSeconds.Observe(d)
				busy.Add(d)
				if err != nil {
					mTasksErr.Inc()
					errMu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, err
					}
					errMu.Unlock()
					cancel() // stop claiming further items
					return
				}
				mTasksOK.Inc()
				out[i] = v
			}
		}(w, p.replicas[w])
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := parent.Err(); err != nil {
		mCancellations.Inc()
		return nil, err
	}
	return out, nil
}

// MapN is Map for replica-less fan-out over `workers` interchangeable
// empty slots (values < 1 mean 1): fn receives only the item index. Results
// are in index order with the same error semantics as Map.
func MapN[V any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (V, error)) ([]V, error) {
	if workers < 1 {
		workers = 1
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return Map(ctx, PoolOf(make([]struct{}, workers)...), idx, func(ctx context.Context, _ struct{}, i int) (V, error) {
		return fn(ctx, i)
	})
}
