// Per-category validation for the AI-inference workload pack: the same
// measured-versus-estimated comparison as Validate, grouped by the
// behavioural class each kernel is tagged with (gemm, attention,
// tensorcore, memory, parked). The aggregate MAPE of a mixed suite can
// hide a category that is systematically wrong — the paper's Figure 7
// analysis per kernel, folded to the class level — so the harness reports
// error per category and gates on a checked-in bound per class.
package eval

import (
	"fmt"
	"math"

	"accelwattch/internal/attr"
	"accelwattch/internal/core"
	"accelwattch/internal/obs"
	"accelwattch/internal/stats"
	"accelwattch/internal/tune"
	"accelwattch/internal/workloads"
)

// Per-category telemetry. Cardinality is bounded by construction at
// 5 categories x 4 variants = 20 series per family.
var (
	mCategoryMAPE = obs.Default().GaugeVec("aw_category_mape_pct",
		"MAPE of the most recent inference-pack validation run, by category and variant.",
		"category", "variant")
	mCategoryKernels = obs.Default().GaugeVec("aw_category_kernels",
		"Kernels validated in the most recent inference-pack run, by category and variant.",
		"category", "variant")
)

// CategoryResult aggregates one category's rows of a validation run.
type CategoryResult struct {
	Category    workloads.Category
	Kernels     int
	MAPE        float64
	MeanAbsErrW float64 // mean |estimated - measured| in watts
	MaxAPE      float64
}

// CategoryValidation pairs the aggregate validation result with the
// per-category error table, in workloads.Categories() reporting order
// (categories absent from the suite are absent from the table).
type CategoryValidation struct {
	*ValidationResult
	Categories []CategoryResult
}

// Category returns the result row for one category, or nil when the suite
// carried no kernels of that class.
func (cv *CategoryValidation) Category(cat workloads.Category) *CategoryResult {
	for i := range cv.Categories {
		if cv.Categories[i].Category == cat {
			return &cv.Categories[i]
		}
	}
	return nil
}

// ValidateByCategory runs one variant's validation over a category-tagged
// suite (typically workloads.InferencePack) through the execution engine
// and the model's zero-allocation EstimateInto — the exact ValidateExec
// computation — then folds the per-kernel rows into per-category MAPE and
// absolute error, publishing aw_category_mape_pct{category,variant}.
func ValidateByCategory(ex *tune.Exec, model *core.Model, v tune.Variant, suite []workloads.Kernel) (*CategoryValidation, error) {
	res, err := ValidateExec(ex, model, v, suite)
	if err != nil {
		return nil, err
	}
	cv := &CategoryValidation{ValidationResult: res}
	for _, cat := range workloads.Categories() {
		var meas, est []float64
		var absSum float64
		for i := range res.Kernels {
			k := &res.Kernels[i]
			if k.Category != cat {
				continue
			}
			meas = append(meas, k.MeasuredW)
			est = append(est, k.EstimatedW)
			absSum += math.Abs(k.EstimatedW - k.MeasuredW)
		}
		if len(meas) == 0 {
			continue
		}
		cr := CategoryResult{Category: cat, Kernels: len(meas), MeanAbsErrW: absSum / float64(len(meas))}
		if cr.MAPE, err = stats.MAPE(meas, est); err != nil {
			return nil, fmt.Errorf("eval: category %s: %w", cat, err)
		}
		if cr.MaxAPE, err = stats.MaxAPE(meas, est); err != nil {
			return nil, fmt.Errorf("eval: category %s: %w", cat, err)
		}
		cv.Categories = append(cv.Categories, cr)
		mCategoryMAPE.With(string(cat), v.String()).Set(cr.MAPE)
		mCategoryKernels.With(string(cat), v.String()).Set(float64(cr.Kernels))
	}
	if len(cv.Categories) == 0 {
		return nil, fmt.Errorf("eval: variant %v: suite carries no category tags", v)
	}
	return cv, nil
}

// ValidateAllByCategory runs ValidateByCategory for all four variants.
func ValidateAllByCategory(ex *tune.Exec, tuned *tune.Result, suite []workloads.Kernel) (map[tune.Variant]*CategoryValidation, error) {
	out := make(map[tune.Variant]*CategoryValidation, tune.NumVariants)
	for _, v := range tune.Variants() {
		cv, err := ValidateByCategory(ex, tuned.Model(v), v, suite)
		if err != nil {
			return nil, fmt.Errorf("eval: variant %v: %w", v, err)
		}
		out[v] = cv
	}
	return out, nil
}

// CheckParkedInvariant verifies the parked-power identity over a
// validation run's kernel rows: every parked-category estimate whose
// attr.Split active domain is zero must equal the idle domain (idle-SM
// plus constant floor) bit-for-bit — the breakdown is zero outside the
// idle components, so the domain split is a pure re-reading of the total,
// not a re-bracketing. At least one such fully-parked row must exist, or
// the scenario the invariant pins was never exercised.
func CheckParkedInvariant(kernels []KernelResult) error {
	fullyParked := 0
	for i := range kernels {
		k := &kernels[i]
		if k.Category != workloads.CatParked {
			continue
		}
		s := attr.Split(&k.Breakdown)
		if !s.Parked() {
			continue
		}
		fullyParked++
		if math.Float64bits(k.EstimatedW) != math.Float64bits(s.TotalW()) {
			return fmt.Errorf("eval: %s: parked estimate %v is not bit-equal to idle domain %v (active %v)",
				k.Name, k.EstimatedW, s.TotalW(), s.ActiveW)
		}
	}
	if fullyParked == 0 {
		return fmt.Errorf("eval: no fully-parked kernel result (zero active-domain power) in the run")
	}
	return nil
}
