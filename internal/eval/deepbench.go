package eval

import (
	"fmt"

	"accelwattch/internal/core"
	"accelwattch/internal/isa"
	"accelwattch/internal/stats"
	"accelwattch/internal/trace"
	"accelwattch/internal/tune"
	"accelwattch/internal/workloads"
)

// DeepBenchResult is one benchmark of Figure 13: measured (hardware runs
// the schedule concurrently) versus estimated (the simulator runs each
// hand-constructed concurrent group) average power.
type DeepBenchResult struct {
	Name       string
	MeasuredW  float64
	EstimatedW float64
}

// DeepBenchStudyExec runs the Section 7.2 case study: for each benchmark,
// each concurrent kernel group is replayed on silicon and on the simulator,
// and group powers combine energy-weighted into the benchmark's average
// power. The per-benchmark replays fan out across the engine's replica
// pool. Silicon and simulator replays are deterministic functions of the
// kernel groups (device noise is keyed by operating point, not call order),
// so the figures are identical at every worker count.
func DeepBenchStudyExec(ex *tune.Exec, model *core.Model, suite []workloads.DeepBenchmark) ([]DeepBenchResult, float64, error) {
	if err := model.Validate(); err != nil {
		return nil, 0, err
	}
	out, err := tune.Map(ex, suite, func(tb *tune.Testbench, db workloads.DeepBenchmark) (DeepBenchResult, error) {
		return deepBenchOne(tb, model, db)
	})
	if err != nil {
		return nil, 0, err
	}
	var meas, est []float64
	for _, res := range out {
		meas = append(meas, res.MeasuredW)
		est = append(est, res.EstimatedW)
	}
	mape, err := stats.MAPE(meas, est)
	if err != nil {
		return nil, 0, err
	}
	return out, mape, nil
}

// deepBenchOne replays one benchmark's kernel groups on silicon and on the
// simulator and combines group powers energy-weighted.
func deepBenchOne(tb *tune.Testbench, model *core.Model, db workloads.DeepBenchmark) (DeepBenchResult, error) {
	// Collect traces once per kernel (shared across replicas via the
	// artifact store).
	traces := make([]*trace.KernelTrace, len(db.Kernels))
	for i := range db.Kernels {
		k := &db.Kernels[i]
		w := tune.Workload{Name: k.Name, Kernel: k.Kernel, Setup: k.Setup}
		kt, err := tb.Trace(w, isa.SASS)
		if err != nil {
			return DeepBenchResult{}, err
		}
		traces[i] = kt
	}
	var mEnergy, mTime, eEnergy, eTime float64
	for _, group := range db.Groups {
		gts := make([]*trace.KernelTrace, 0, len(group))
		for _, gi := range group {
			gts = append(gts, traces[gi])
		}
		// Hardware measurement of the concurrent group.
		m, err := tb.Device.Run(gts...)
		if err != nil {
			return DeepBenchResult{}, err
		}
		mEnergy += m.AvgPowerW * m.RuntimeS
		mTime += m.RuntimeS
		// Simulator + power model on the same group.
		r, err := tb.Sim.Run(gts...)
		if err != nil {
			return DeepBenchResult{}, err
		}
		var bd core.Breakdown
		if err := model.EstimateInto(&r.Aggregate, &bd); err != nil {
			return DeepBenchResult{}, fmt.Errorf("eval: deepbench %s: %w", db.Name, err)
		}
		p := bd.Total()
		t := r.Cycles / (tb.Arch.BaseClockMHz * 1e6)
		eEnergy += p * t
		eTime += t
	}
	return DeepBenchResult{
		Name:       db.Name,
		MeasuredW:  mEnergy / mTime,
		EstimatedW: eEnergy / eTime,
	}, nil
}
