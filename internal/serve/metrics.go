package serve

import (
	"accelwattch/internal/attr"
	"accelwattch/internal/obs"
)

// Serving telemetry, following the obs naming scheme with subsystem
// "serve". Label cardinality is bounded by construction: route is one of
// the fixed handler names, code one of the handful of statuses the service
// emits, cache/reject reasons are closed vocabularies, and model is an
// entry name from the registry, which maxModels caps and Retire
// garbage-collects (retiring a model deletes its series). Request bodies
// and kernel names never become labels — per-kernel context goes to the
// ledger.
var (
	mRequests = obs.Default().CounterVec("aw_serve_requests_total",
		"HTTP requests served, by route and status code.", "route", "code")
	mLatency = obs.Default().HistogramVec("aw_serve_request_seconds",
		"End-to-end request latency in seconds, by route.",
		obs.ExpBuckets(1e-5, 4, 12), "route")
	mCacheEvents = obs.Default().CounterVec("aw_serve_cache_events_total",
		"Response-cache events (hit, miss, eviction, bypass), by model shard.", "model", "result")
	mRejected = obs.Default().CounterVec("aw_serve_rejected_total",
		"Requests rejected before computation, by reason (draining).", "reason")
	mDraining = obs.Default().Gauge("aw_serve_draining",
		"1 while the server is draining and refusing new estimation work.")
	mEstimates = obs.Default().CounterVec("aw_serve_estimates_total",
		"Estimates served (cache hits included), by model and variant.", "model", "variant")
	mModels = obs.Default().Gauge("aw_serve_models",
		"Live (non-retired) models in the serving registry.")
	mModelState = obs.Default().GaugeVec("aw_serve_model_state",
		"Per-model readiness: 1 ready, 2 retired.", "model")
	mVariantMismatch = obs.Default().CounterVec("aw_serve_variant_mismatch_total",
		"Estimates answered by a model under a variant other than the one it records being tuned for.", "model")
	mAdminOps = obs.Default().CounterVec("aw_serve_admin_total",
		"Admin operations on the model registry, by op (add, replace, retire) and outcome (ok, error).", "op", "outcome")

	// mEnergy attributes live estimate traffic to serving models as energy:
	// every answered /estimate (cache hits included — a replayed response
	// still represents a served execution window) charges the request's
	// virtual window joules to the model's tenant series in
	// aw_tenant_joules_total{tenant,domain}, split into active vs idle power
	// domains. Models are the gateway's tenants; Retire garbage-collects
	// their label values exactly like the other per-model families. The
	// families are shared with the internal/attr collectors (awmeterd), so
	// one scrape config covers both sources of the chargeback ledger.
	mEnergy = attr.NewMeter(obs.Default(), attr.DefaultMaxTenantSeries)
)
