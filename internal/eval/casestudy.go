package eval

import (
	"context"
	"fmt"

	"accelwattch/internal/config"
	"accelwattch/internal/core"
	"accelwattch/internal/tune"
	"accelwattch/internal/ubench"
	"accelwattch/internal/workloads"
)

// CaseStudyResult is one design-space-exploration experiment (Section 7.1):
// the Volta-tuned model applied, without retuning, to another architecture.
type CaseStudyResult struct {
	Arch    *config.Arch
	SASS    *ValidationResult
	PTX     *ValidationResult
	Testbed *tune.Testbench
	Model   *core.Model
}

// CaseStudy retargets the tuned Volta models to a new architecture and
// validates against that architecture's silicon: technology scaling is
// applied when nodes differ (Pascal, 16 nm), constant power is adjusted for
// Turing, and traces are re-extracted on the target GPU (Section 7.1).
// Results are identical at every worker count. Breakdown events carry the
// target's name as their detail.
func CaseStudy(tuned *tune.Result, target *config.Arch, sc ubench.Scale, workers int) (*CaseStudyResult, error) {
	tb, err := tune.NewTestbench(target, sc)
	if err != nil {
		return nil, err
	}
	ex, err := tune.NewExec(context.Background(), tb, workers)
	if err != nil {
		return nil, err
	}
	suite, err := workloads.ValidationSuite(target, sc)
	if err != nil {
		return nil, err
	}
	out := &CaseStudyResult{Arch: target, Testbed: tb}

	constMult := core.DefaultConstMult(target)
	sassModel, _, err := tuned.Model(tune.SASSSIM).Derive(target, constMult)
	if err != nil {
		return nil, fmt.Errorf("eval: retarget SASS model: %w", err)
	}
	out.Model = sassModel
	if out.SASS, err = validate(ex, sassModel, target.Name, tune.SASSSIM, suite); err != nil {
		return nil, err
	}
	ptxModel, _, err := tuned.Model(tune.PTXSIM).Derive(target, constMult)
	if err != nil {
		return nil, err
	}
	if out.PTX, err = validate(ex, ptxModel, target.Name, tune.PTXSIM, suite); err != nil {
		return nil, err
	}
	return out, nil
}

// RelativePowerRow is one kernel of Figure 12: the power of architecture B
// relative to architecture A, modeled and measured.
type RelativePowerRow struct {
	Name        string
	ModeledPct  float64 // 100*(P_B/P_A - 1) from the model
	MeasuredPct float64 // same from hardware
}

// RelativePowerResult is one architecture pair of Figure 12.
type RelativePowerResult struct {
	PairName string
	Rows     []RelativePowerRow
	// AvgModeledPct / AvgMeasuredPct are the red "Avg." bars; AvgErrPct
	// is their absolute difference (1-3% in the paper).
	AvgModeledPct  float64
	AvgMeasuredPct float64
	AvgErrPct      float64
	// SameDirectionFrac is the fraction of kernels where the modeled
	// relative change points the same way as the measured one (85-100%
	// in the paper).
	SameDirectionFrac float64
}

// RelativePower compares two validations kernel-by-kernel (Figure 12).
// Kernels present in only one suite (e.g. tensor kernels on Pascal) are
// skipped.
func RelativePower(pairName string, a, b *ValidationResult) *RelativePowerResult {
	byName := make(map[string]*KernelResult, len(a.Kernels))
	for i := range a.Kernels {
		byName[a.Kernels[i].Name] = &a.Kernels[i]
	}
	out := &RelativePowerResult{PairName: pairName}
	var sameDir, total float64
	for i := range b.Kernels {
		kb := &b.Kernels[i]
		ka, ok := byName[kb.Name]
		if !ok {
			continue
		}
		row := RelativePowerRow{
			Name:        kb.Name,
			ModeledPct:  100 * (kb.EstimatedW/ka.EstimatedW - 1),
			MeasuredPct: 100 * (kb.MeasuredW/ka.MeasuredW - 1),
		}
		out.Rows = append(out.Rows, row)
		out.AvgModeledPct += row.ModeledPct
		out.AvgMeasuredPct += row.MeasuredPct
		total++
		if (row.ModeledPct >= 0) == (row.MeasuredPct >= 0) {
			sameDir++
		}
	}
	if total > 0 {
		out.AvgModeledPct /= total
		out.AvgMeasuredPct /= total
		out.SameDirectionFrac = sameDir / total
	}
	out.AvgErrPct = abs(out.AvgModeledPct - out.AvgMeasuredPct)
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// GPUWattchComparison applies a legacy model (package gpuwattch) to the
// suite under both simulator variants (Section 7.3).
type GPUWattchComparison struct {
	SASSMAPE, PTXMAPE float64
	AvgEstimatedW     float64
	MaxEstimatedW     float64
	ConstPlusStaticW  float64
	IntMulShare       float64 // average fraction of power on INT MUL units
	DRAMShare         float64
}

// CompareGPUWattch validates the legacy model on the Volta suite. Its
// breakdown events carry "gpuwattch" as their detail.
func CompareGPUWattch(tb *tune.Testbench, legacy *core.Model, suite []workloads.Kernel) (*GPUWattchComparison, error) {
	out := &GPUWattchComparison{ConstPlusStaticW: legacy.ConstW}
	for _, v := range []tune.Variant{tune.SASSSIM, tune.PTXSIM} {
		r, err := validate(tb.Sequential(), legacy, "gpuwattch", v, suite)
		if err != nil {
			return nil, err
		}
		if v == tune.SASSSIM {
			out.SASSMAPE = r.MAPE
			var sum float64
			var intShare, dramShare float64
			for i := range r.Kernels {
				e := r.Kernels[i].EstimatedW
				sum += e
				if e > out.MaxEstimatedW {
					out.MaxEstimatedW = e
				}
				total := r.Kernels[i].Breakdown.Total()
				intShare += r.Kernels[i].Breakdown.Watts[core.CompINTMUL] / total
				dramShare += r.Kernels[i].Breakdown.Watts[core.CompDRAMMC] / total
			}
			n := float64(len(r.Kernels))
			out.AvgEstimatedW = sum / n
			out.IntMulShare = intShare / n
			out.DRAMShare = dramShare / n
		} else {
			out.PTXMAPE = r.MAPE
		}
	}
	return out, nil
}
