package main

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"time"

	"accelwattch"
	"accelwattch/internal/eval"
	"accelwattch/internal/faults"
	"accelwattch/internal/isa"
	"accelwattch/internal/obs"
	"accelwattch/internal/silicon"
	"accelwattch/internal/trace"
	"accelwattch/internal/tune"
	"accelwattch/internal/ubench"
	"accelwattch/internal/workloads"
)

// busy accumulates the calls into one layer: how many, how long, and how
// many heap bytes they allocated.
type busy struct {
	Calls      int     `json:"calls"`
	Seconds    float64 `json:"s"`
	AllocBytes uint64  `json:"alloc_bytes"`
}

func (b *busy) add(d time.Duration, alloc uint64) {
	b.Calls++
	b.Seconds += d.Seconds()
	b.AllocBytes += alloc
}

func (b busy) minus(o busy) busy {
	return busy{Calls: b.Calls - o.Calls, Seconds: b.Seconds - o.Seconds, AllocBytes: b.AllocBytes - o.AllocBytes}
}

// layerReport is the traced child's per-layer account. Emu and sim calls
// are split by the suite the kernel belongs to, so each end-to-end phase
// can be set beside the layers that serve it.
type layerReport struct {
	PrewarmS      float64 `json:"prewarm_s"`
	EmuTune       busy    `json:"emu_tune"`
	EmuVal        busy    `json:"emu_val"`
	SimTune       busy    `json:"sim_tune"`
	SimVal        busy    `json:"sim_val"`
	WarpInstrs    int64   `json:"warp_instrs"`     // traced by emu
	SimCycles     float64 `json:"sim_cycles"`      // simulated, summed over runs
	SimWarpInstrs int64   `json:"sim_warp_instrs"` // simulated, summed over runs
	RunsTune      busy    `json:"runs_tune"`       // silicon Run during the tune
	RunsVal       busy    `json:"runs_val"`
	ProfilesTune  busy    `json:"profiles_tune"` // silicon Profile during the tune
	ProfilesVal   busy    `json:"profiles_val"`
	TuneAlloc     uint64  `json:"tune_alloc_bytes"`
	QPSolves      float64 `json:"qp_solves"`
	QPIterations  float64 `json:"qp_iterations"`
	RetainedBytes uint64  `json:"retained_bytes"`
	GCCPUS        float64 `json:"gc_cpu_s"`
	GCCycles      uint64  `json:"gc_cycles"`
}

// timedMeter is a pass-through faults.Meter around the device that times
// every Run and Profile. Readings are the device's own, bit for bit. The
// traced job runs one engine worker, so calls never overlap; the mutex only
// orders the counters for the race detector.
type timedMeter struct {
	faults.Meter
	mu             sync.Mutex
	runs, profiles busy
}

func (m *timedMeter) start() (time.Time, uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return time.Now(), readRuntime().allocBytes
}

func (m *timedMeter) Run(kts ...*trace.KernelTrace) (*silicon.Measurement, error) {
	t, a := m.start()
	r, err := m.Meter.Run(kts...)
	m.mu.Lock()
	m.runs.add(time.Since(t), readRuntime().allocBytes-a)
	m.mu.Unlock()
	return r, err
}

func (m *timedMeter) Profile(kts ...*trace.KernelTrace) (*silicon.Counters, error) {
	t, a := m.start()
	c, err := m.Meter.Profile(kts...)
	m.mu.Lock()
	m.profiles.add(time.Since(t), readRuntime().allocBytes-a)
	m.mu.Unlock()
	return c, err
}

func (m *timedMeter) totals() (runs, profiles busy) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.runs, m.profiles
}

// prewarmItem is one kernel the pipeline traces, with the ISA levels it is
// traced and simulated at.
type prewarmItem struct {
	w          tune.Workload
	validation bool
	trace, sim []isa.Level
}

// pipelineKernels lists every kernel a Quick tune + validate traces, in
// pipeline order, deduplicated by name the way the artifact store keys
// them. The DVFS, divergence and occupancy sweeps are only measured (a
// SASS trace); the Table 2 suite feeds all four variants (traces and
// simulations at both levels); a Table 4 kernel is simulated at SASS for
// SASS SIM and HYBRID, and at PTX when PTX SIM validates it.
func pipelineKernels(arch *accelwattch.Arch, sc accelwattch.Scale, suite []workloads.Kernel) ([]*prewarmItem, error) {
	var items []*prewarmItem
	byName := map[string]*prewarmItem{}
	add := func(w tune.Workload, validation bool, levels ...isa.Level) *prewarmItem {
		it := byName[w.Name]
		if it == nil {
			it = &prewarmItem{w: w, validation: validation, trace: []isa.Level{isa.SASS}}
			byName[w.Name] = it
			items = append(items, it)
		}
		for _, l := range levels {
			if !hasLevel(it.trace, l) {
				it.trace = append(it.trace, l)
			}
			if !hasLevel(it.sim, l) {
				it.sim = append(it.sim, l)
			}
		}
		return it
	}
	for _, b := range ubench.DVFSSuite(arch, sc) {
		add(tune.FromBench(b), false)
	}
	for _, mix := range ubench.DivergenceMixes(arch) {
		for _, y := range []int{1, 4, 8, 12, 16, 20, 24, 28, 32} {
			add(tune.FromBench(ubench.DivergenceBench(arch, sc, mix, y)), false)
		}
	}
	n := arch.NumSMs
	for _, k := range []int{n, n / 8, n / 4, n / 2, 3 * n / 4} {
		if k > 0 {
			add(tune.FromBench(ubench.OccupancyBench(arch, sc, k)), false)
			add(tune.FromBench(ubench.OccupancyBenchFP(arch, sc, k)), false)
		}
	}
	benches, err := ubench.Suite(arch, sc)
	if err != nil {
		return nil, err
	}
	for _, b := range benches {
		add(tune.FromBench(b), false, isa.SASS, isa.PTX)
	}
	for i := range suite {
		k := &suite[i]
		if k.SyntheticActivity != nil {
			continue
		}
		levels := []isa.Level{isa.SASS}
		if k.ForVariantPTX() {
			levels = append(levels, isa.PTX)
		}
		add(tune.Workload{Name: k.Name, Kernel: k.Kernel, Setup: k.Setup}, true, levels...)
	}
	return items, nil
}

func hasLevel(ls []isa.Level, l isa.Level) bool {
	for _, x := range ls {
		if x == l {
			return true
		}
	}
	return false
}

// childTraced is the traced job. It builds the testbench the way a session
// does, installs the timing meter, pre-warms the artifact store in layer
// order (every trace through emu, then every simulation), and then times
// Exec.Tune and eval.ValidateAllExec on the warm store. Its outputs must
// equal the untraced job's.
func childTraced() (*pipelineReport, error) {
	arch := accelwattch.Volta()
	sc := accelwattch.Quick
	rep := &pipelineReport{GOMAXPROCS: runtime.GOMAXPROCS(0), Layers: &layerReport{}}
	lr := rep.Layers
	tb, err := accelwattch.NewWorkerTestbench(arch, sc, accelwattch.SessionOptions{Workers: 1})
	if err != nil {
		return nil, err
	}
	meter := &timedMeter{Meter: tb.Meter}
	tb.UseMeter(meter, tb.Policy)
	suite, err := workloads.ValidationSuite(arch, sc)
	if err != nil {
		return nil, err
	}
	items, err := pipelineKernels(arch, sc, suite)
	if err != nil {
		return nil, err
	}

	cpu0, rt0 := selfCPU(), readRuntime()
	start := time.Now()
	for _, it := range items {
		layer := &lr.EmuTune
		if it.validation {
			layer = &lr.EmuVal
		}
		for _, l := range it.trace {
			t, a := time.Now(), readRuntime().allocBytes
			kt, err := tb.Trace(it.w, l)
			layer.add(time.Since(t), readRuntime().allocBytes-a)
			if err != nil {
				return nil, err
			}
			for wi := range kt.Warps {
				lr.WarpInstrs += int64(len(kt.Warps[wi].Recs))
			}
		}
	}
	for _, it := range items {
		layer := &lr.SimTune
		if it.validation {
			layer = &lr.SimVal
		}
		for _, l := range it.sim {
			t, a := time.Now(), readRuntime().allocBytes
			r, err := tb.Simulate(it.w, l)
			layer.add(time.Since(t), readRuntime().allocBytes-a)
			if err != nil {
				return nil, err
			}
			lr.SimCycles += r.Cycles
			lr.SimWarpInstrs += r.WarpInstrs
		}
	}
	lr.PrewarmS = time.Since(start).Seconds()

	ex, err := tune.NewExec(context.Background(), tb, 1)
	if err != nil {
		return nil, err
	}
	opts := tb.DefaultOptions()
	opts.Workers = 1
	qp0, err := qpTotals()
	if err != nil {
		return nil, err
	}
	runs0, profiles0 := meter.totals()
	a0 := readRuntime().allocBytes
	start = time.Now()
	tuned, err := ex.Tune(opts)
	if err != nil {
		return nil, err
	}
	rep.TuneS = time.Since(start).Seconds()
	lr.TuneAlloc = readRuntime().allocBytes - a0
	runs1, profiles1 := meter.totals()
	lr.RunsTune, lr.ProfilesTune = runs1.minus(runs0), profiles1.minus(profiles0)
	qp1, err := qpTotals()
	if err != nil {
		return nil, err
	}
	lr.QPSolves, lr.QPIterations = qp1[0]-qp0[0], qp1[1]-qp0[1]

	// What the artifact store and the tuned models keep alive.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	lr.RetainedBytes = ms.HeapAlloc

	start = time.Now()
	all, err := eval.ValidateAllExec(ex, tuned, suite)
	if err != nil {
		return nil, err
	}
	rep.ValidateS = time.Since(start).Seconds()
	runs2, profiles2 := meter.totals()
	lr.RunsVal, lr.ProfilesVal = runs2.minus(runs1), profiles2.minus(profiles1)

	rt1 := readRuntime()
	rep.CPUS = (selfCPU() - cpu0).Seconds()
	rep.AllocBytes = rt1.allocBytes - rt0.allocBytes
	lr.GCCPUS = rt1.gcCPU - rt0.gcCPU
	lr.GCCycles = rt1.gcCycles - rt0.gcCycles
	checkValidation(rep, suite, tuned, all)
	return rep, nil
}

// qpTotals reads the QP solve and iteration counters the tuning pipeline
// exports on the obs registry.
func qpTotals() ([2]float64, error) {
	var buf bytes.Buffer
	if err := obs.Default().WritePrometheus(&buf); err != nil {
		return [2]float64{}, err
	}
	p, err := parseProm(buf.String())
	if err != nil {
		return [2]float64{}, err
	}
	return [2]float64{p.sum("aw_tune_qp_solves_total", nil), p.sum("aw_tune_qp_iterations_total", nil)}, nil
}

// pipelineLayers turns the traced job's account into the per-layer
// metrics and adds the accounting report: each end-to-end time of the
// untraced job beside the traced busy time of the layers under it.
func pipelineLayers(rec *record, job, traced *pipelineReport) map[string]float64 {
	lr := traced.Layers
	emu := busy{Calls: lr.EmuTune.Calls + lr.EmuVal.Calls, Seconds: lr.EmuTune.Seconds + lr.EmuVal.Seconds,
		AllocBytes: lr.EmuTune.AllocBytes + lr.EmuVal.AllocBytes}
	sim := busy{Calls: lr.SimTune.Calls + lr.SimVal.Calls, Seconds: lr.SimTune.Seconds + lr.SimVal.Seconds,
		AllocBytes: lr.SimTune.AllocBytes + lr.SimVal.AllocBytes}
	silTune := lr.RunsTune.Seconds + lr.ProfilesTune.Seconds
	silVal := lr.RunsVal.Seconds + lr.ProfilesVal.Seconds
	fitS := traced.TuneS - silTune
	evalS := traced.ValidateS - silVal
	tracedTotal := lr.PrewarmS + traced.TuneS + traced.ValidateS
	untracedTotal := job.TuneS + job.ValidateS
	layersTotal := emu.Seconds + sim.Seconds + silTune + silVal + fitS + evalS
	rows := 0
	for _, k := range traced.Kernels {
		rows += k
	}

	v := zeroLayers()
	v["emu.calls"] = float64(emu.Calls)
	v["emu.busy_s"] = emu.Seconds
	v["emu.alloc_gb"] = float64(emu.AllocBytes) / 1e9
	v["emu.warp_instrs"] = float64(lr.WarpInstrs)
	v["emu.ns_per_instr"] = emu.Seconds * 1e9 / float64(max(lr.WarpInstrs, 1))
	v["sim.calls"] = float64(sim.Calls)
	v["sim.busy_s"] = sim.Seconds
	v["sim.alloc_gb"] = float64(sim.AllocBytes) / 1e9
	v["sim.cycles"] = lr.SimCycles
	v["sim.ns_per_instr"] = sim.Seconds * 1e9 / float64(max(lr.SimWarpInstrs, 1))
	v["silicon.runs"] = float64(lr.RunsTune.Calls + lr.RunsVal.Calls)
	v["silicon.profiles"] = float64(lr.ProfilesTune.Calls + lr.ProfilesVal.Calls)
	v["silicon.busy_s"] = silTune + silVal
	v["silicon.alloc_gb"] = float64(lr.RunsTune.AllocBytes+lr.RunsVal.AllocBytes+
		lr.ProfilesTune.AllocBytes+lr.ProfilesVal.AllocBytes) / 1e9
	v["tune.fit_s"] = fitS
	v["tune.fit_alloc_gb"] = (float64(lr.TuneAlloc) - float64(lr.RunsTune.AllocBytes+lr.ProfilesTune.AllocBytes)) / 1e9
	v["qp.solves"] = lr.QPSolves
	v["qp.iterations"] = lr.QPIterations
	v["eval.busy_s"] = evalS
	v["eval.rows"] = float64(rows)
	v["tune.retained_mb"] = float64(lr.RetainedBytes) / 1e6
	v["runtime.gc_cpu_s"] = lr.GCCPUS
	v["runtime.gc_cycles"] = float64(lr.GCCycles)
	v["trace.coverage_pct"] = 100 * layersTotal / tracedTotal
	v["trace.overhead_pct"] = 100 * (tracedTotal - untracedTotal) / untracedTotal

	tuneLayers := lr.EmuTune.Seconds + lr.SimTune.Seconds + silTune + fitS
	valLayers := lr.EmuVal.Seconds + lr.SimVal.Seconds + silVal + evalS
	rec.add("accounting (untraced end-to-end time | traced layers under it | unattributed):")
	rec.add("  tune_s     %8.3f | emu %.3f + sim %.3f + silicon %.3f + fit %.3f = %.3f | %+.3f",
		job.TuneS, lr.EmuTune.Seconds, lr.SimTune.Seconds, silTune, fitS, tuneLayers, job.TuneS-tuneLayers)
	rec.add("  validate_s %8.3f | emu %.3f + sim %.3f + silicon %.3f + eval %.3f = %.3f | %+.3f",
		job.ValidateS, lr.EmuVal.Seconds, lr.SimVal.Seconds, silVal, evalS, valLayers, job.ValidateS-valLayers)
	rec.add("  traced run %.3f s (prewarm %.3f + tune %.3f + validate %.3f) vs untraced %.3f s: overhead %+.2f%%, layers cover %.2f%% of it",
		tracedTotal, lr.PrewarmS, traced.TuneS, traced.ValidateS, untracedTotal,
		v["trace.overhead_pct"], v["trace.coverage_pct"])
	return v
}
