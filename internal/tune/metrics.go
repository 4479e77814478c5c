package tune

import "accelwattch/internal/obs"

// Tuning-pipeline telemetry: meter-path robustness counters and QP solver
// stats. Stage durations are covered by the obs stage spans
// (aw_stage_seconds) Exec.Tune opens. All of it is observe-only — no tuning
// decision reads a metric back.
var (
	mMeterReads = obs.Default().Counter("aw_tune_meter_reads_total",
		"Successful power-meter reads (post-retry).")
	mMeterRetries = obs.Default().Counter("aw_tune_meter_retries_total",
		"Additional meter attempts after transient read failures.")
	mMeterFailures = obs.Default().Counter("aw_tune_meter_read_failures_total",
		"Operating points that failed every retry attempt.")
	mSamplesRejected = obs.Default().Counter("aw_tune_meter_samples_rejected_total",
		"Power samples rejected by MAD outlier filtering.")

	mQuarantines = obs.Default().CounterVec("aw_tune_quarantines_total",
		"Workloads and stages quarantined out of the tuning flow, by reason class.",
		"reason")

	mQPSolves = obs.Default().CounterVec("aw_tune_qp_solves_total",
		"QP dynamic-tuning solves, by variant and outcome (ok, fallback).",
		"variant", "outcome")
	mQPIterations = obs.Default().CounterVec("aw_tune_qp_iterations_total",
		"QP solver iterations accumulated, by variant.", "variant")
)

// Quarantine reason classes, bounding the aw_tune_quarantines_total label
// cardinality to a fixed vocabulary (never workload names).
const (
	qcFailedPoints = "failed_points"  // meter retry budget exhausted
	qcDVFSHoles    = "dvfs_holes"     // too few surviving DVFS ladder points
	qcDropped      = "dropped"        // microbenchmark dropped from the QP tuning set
	qcNonPhysical  = "non_physical"   // non-finite or non-positive measured power
	qcNonFinite    = "non_finite_row" // NaN/Inf leaked into a QP row
	qcQPSolver     = "qp_solver"      // QP solver failed; start-point fallback
	qcStaticFit    = "static_fit"     // divergence/idle-SM static fit failed
	qcTemperature  = "temperature"    // temperature ladder failed or implausible
)
