package engine

import (
	"strconv"
	"sync"

	"accelwattch/internal/obs"
)

// Engine telemetry. Everything here is observe-only: no engine decision
// reads a metric back, so instrumentation cannot perturb the bit-identical
// parallelism contract. Handles resolve once at init (or once per worker
// for the indexed busy-seconds counter), keeping the per-task path at a few
// atomics.
var (
	mTasks = obs.Default().CounterVec("aw_engine_tasks_total",
		"Engine tasks finished, by outcome.", "outcome")
	mTasksOK  = mTasks.With("ok")
	mTasksErr = mTasks.With("error")

	mTaskSeconds = obs.Default().Histogram("aw_engine_task_seconds",
		"Wall-clock latency of individual engine tasks.",
		obs.ExpBuckets(1e-5, 4, 12))

	mQueueDepth = obs.Default().Gauge("aw_engine_queue_depth",
		"Items not yet claimed by a worker across active fan-outs.")

	mFanouts = obs.Default().Counter("aw_engine_fanouts_total",
		"Map fan-outs started.")

	mWorkerBusy = obs.Default().CounterVec("aw_engine_worker_busy_seconds_total",
		"Wall-clock seconds each worker spent executing tasks.", "worker")

	mPoolWorkers = obs.Default().Gauge("aw_engine_pool_workers",
		"Worker count of the most recently built pool.")
)

// workerBusy caches the per-index busy-seconds handles: worker indices are
// bounded by the pool size (≤ GOMAXPROCS in practice), so the cache stays
// tiny and the per-fan-out cost is one RLock'd map hit per worker.
var (
	workerBusyMu    sync.RWMutex
	workerBusyCache = map[int]*obs.Counter{}
)

func workerBusy(w int) *obs.Counter {
	workerBusyMu.RLock()
	c, ok := workerBusyCache[w]
	workerBusyMu.RUnlock()
	if ok {
		return c
	}
	workerBusyMu.Lock()
	defer workerBusyMu.Unlock()
	if c, ok = workerBusyCache[w]; !ok {
		c = mWorkerBusy.With(strconv.Itoa(w))
		workerBusyCache[w] = c
	}
	return c
}
