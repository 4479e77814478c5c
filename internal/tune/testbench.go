// Package tune implements the AccelWattch model-construction flow of
// Figure 1: DVFS-aware constant-power estimation (Section 4.2), power-
// gating- and divergence-aware static modelling (Sections 4.3-4.5), idle-SM
// modelling (Section 4.6), and quadratic-programming dynamic tuning from
// the 102-microbenchmark suite (Sections 5.1-5.4), for each of the four
// AccelWattch variants (SASS SIM, PTX SIM, HW, HYBRID).
package tune

import (
	"fmt"
	"sync"

	"accelwattch/internal/config"
	"accelwattch/internal/emu"
	"accelwattch/internal/engine"
	"accelwattch/internal/faults"
	"accelwattch/internal/isa"
	"accelwattch/internal/obs"
	"accelwattch/internal/silicon"
	"accelwattch/internal/sim"
	"accelwattch/internal/trace"
	"accelwattch/internal/ubench"
)

// Testbench bundles one target device with its performance simulator. It is
// read-only after construction (UseMeter aside) except for the shared
// artifact store, so Replicate can hand each engine worker its own device
// while all replicas memoise traces, measurements, profiles and simulation
// results in one place — the tuning flow replays the same kernels at many
// frequencies, and the 4-variant validation replays the same kernels per
// variant. Nothing is emulated twice: a PTX workload's SASS trace is its
// PTX trace lowered (see Trace).
type Testbench struct {
	Arch   *config.Arch
	Device *silicon.Device
	Sim    *sim.Simulator
	Scale  ubench.Scale

	// Meter is the measurement path — the device itself by default, or a
	// faults.FaultyMeter wrapping it (see UseMeter). Policy, clean unless
	// UseMeter installs another, governs retries, repeats and robust
	// aggregation on that path.
	Meter  faults.Meter
	Policy MeterPolicy

	// Worker is this testbench's index in its execution-engine pool
	// (0 for the primary and for stand-alone testbenches); it attributes
	// measurement spans to Perfetto worker tracks and is observe-only —
	// no measurement depends on it.
	Worker int

	arts *artifacts
}

// traceKey identifies a functional trace or simulation run.
type traceKey struct {
	name  string
	level isa.Level
}

// measureKey identifies one silicon operating point.
type measureKey struct {
	name     string
	clockMHz float64
}

// artifacts is the concurrency-safe store shared by a testbench and all of
// its replicas. Each entry is computed exactly once, process-wide, keyed by
// (workload, frequency) or (workload, ISA level) — never by call order —
// and errors are cached alongside values so a failed measurement is never
// silently retried with fresh fault state by a later caller.
type artifacts struct {
	traces   *engine.Store[traceKey, *trace.KernelTrace]
	measures *engine.Store[measureKey, *silicon.Measurement]
	profiles *engine.Store[string, *silicon.Counters]
	simRuns  *engine.Store[traceKey, *sim.Result]

	mu          sync.Mutex
	quarantined map[string]string
	failCount   map[string]int
}

func newArtifacts() *artifacts {
	return &artifacts{
		traces:      engine.NewStore[traceKey, *trace.KernelTrace](),
		measures:    engine.NewStore[measureKey, *silicon.Measurement](),
		profiles:    engine.NewStore[string, *silicon.Counters](),
		simRuns:     engine.NewStore[traceKey, *sim.Result](),
		quarantined: make(map[string]string),
		failCount:   make(map[string]int),
	}
}

// NewTestbench builds a testbench for an architecture with a silicon model.
func NewTestbench(arch *config.Arch, sc ubench.Scale) (*Testbench, error) {
	dev, err := silicon.NewDevice(arch)
	if err != nil {
		return nil, err
	}
	s, err := sim.New(arch)
	if err != nil {
		return nil, err
	}
	return &Testbench{
		Arch: arch, Device: dev, Sim: s, Scale: sc,
		Meter: dev,
		arts:  newArtifacts(),
	}, nil
}

// Replicate builds a worker-private copy of the testbench for the execution
// engine: a device replica (deterministic, so a replica measures exactly
// what the original would) sharing the simulator, the artifact store,
// quarantine state and the device's replay memo. A Simulator is read-only
// after sim.New, so one serves every replica. A fault-injected meter is
// replicated around the new device with shared fault state; any other
// custom meter is shared as-is and must be safe for concurrent use (or the
// caller must keep workers=1).
func (tb *Testbench) Replicate() *Testbench {
	dev := tb.Device.Replica()
	nt := &Testbench{
		Arch: tb.Arch, Device: dev, Sim: tb.Sim, Scale: tb.Scale,
		Policy: tb.Policy,
		arts:   tb.arts,
	}
	switch m := tb.Meter.(type) {
	case *silicon.Device:
		nt.Meter = dev
	case *faults.FaultyMeter:
		if d, ok := m.Inner().(*silicon.Device); ok && d == tb.Device {
			nt.Meter = m.Replicate(dev)
		} else {
			nt.Meter = m
		}
	default:
		nt.Meter = tb.Meter
	}
	return nt
}

// Workload is anything the testbench can run: a kernel plus its memory
// setup. Both microbenchmarks and validation kernels convert to it.
type Workload struct {
	Name   string
	Kernel *isa.Kernel // PTX level
	Setup  func(*emu.Memory)
}

// FromBench adapts a microbenchmark.
func FromBench(b ubench.Bench) Workload {
	return Workload{Name: b.Name, Kernel: b.Kernel, Setup: b.SetupMem}
}

func (w *Workload) newMemory() *emu.Memory {
	m := emu.NewMemory()
	if w.Setup != nil {
		w.Setup(m)
	}
	return m
}

// Trace returns the functional trace of the workload at the given ISA
// level, computing and caching it on first use (the NVBit step). A PTX
// workload is emulated once, at PTX: its SASS trace is the stored PTX
// trace lowered by emu.Lower, which shares the PTX trace's addresses and,
// when no opcode expands, its warps. A SASS workload is emulated directly.
func (tb *Testbench) Trace(w Workload, level isa.Level) (*trace.KernelTrace, error) {
	return tb.arts.traces.Do(traceKey{w.Name, level}, func() (*trace.KernelTrace, error) {
		if level == isa.SASS && w.Kernel.Level == isa.PTX {
			ptx, err := tb.Trace(w, isa.PTX)
			if err != nil {
				return nil, err
			}
			kt, err := emu.Lower(ptx)
			if err != nil {
				return nil, fmt.Errorf("tune: tracing %s: %w", w.Name, err)
			}
			return kt, nil
		}
		k, err := isa.ForLevel(w.Kernel, level)
		if err != nil {
			return nil, err
		}
		kt, err := emu.Run(k, w.newMemory())
		if err != nil {
			return nil, fmt.Errorf("tune: tracing %s: %w", w.Name, err)
		}
		return kt, nil
	})
}

// pointOutcome is the result of measuring one operating point: either a
// measurement or the deterministic reason it failed. Attempts totals the
// meter reads spent (the ledger's effort record).
type pointOutcome struct {
	m        *silicon.Measurement
	attempts int
	errMsg   string
}

// Measure runs the workload on the silicon at the given core clock (0 means
// the base applications clock) following the methodology of Section 4.1
// (65C die temperature, locked clocks) and returns the NVML measurement.
// Each operating point is measured exactly once, in process, across all
// replicas; a failed point counts toward the workload's quarantine budget
// and its error is cached, so repeated sweeps see a stable outcome.
func (tb *Testbench) Measure(w Workload, clockMHz float64) (*silicon.Measurement, error) {
	if clockMHz == 0 {
		clockMHz = tb.Arch.BaseClockMHz
	}
	return tb.arts.measures.Do(measureKey{w.Name, clockMHz}, func() (*silicon.Measurement, error) {
		out, err := tb.localPoint(w, clockMHz)
		if err != nil {
			return nil, err
		}
		if out.errMsg != "" {
			obs.Emit(obs.Event{Kind: obs.KindMeasureErr, Stage: "tune/measure",
				Workload: w.Name, ClockMHz: clockMHz, Attempts: out.attempts, Error: out.errMsg})
			tb.noteFailure(w.Name)
			return nil, fmt.Errorf("tune: measuring %s at %.0f MHz: %s: %w", w.Name, clockMHz, out.errMsg, ErrMeasurement)
		}
		obs.Emit(obs.Event{Kind: obs.KindMeasure, Stage: "tune/measure",
			Workload: w.Name, ClockMHz: clockMHz, PowerW: out.m.AvgPowerW, Attempts: out.attempts})
		return out.m, nil
	})
}

// localPoint reads one operating point on this replica's meter. Hard errors
// (a failed trace, a clock out of range) return as errors; a measurement
// that failed all retries is a deterministic outcome and returns as a value
// with errMsg set.
func (tb *Testbench) localPoint(w Workload, clockMHz float64) (pointOutcome, error) {
	kt, err := tb.Trace(w, isa.SASS)
	if err != nil {
		return pointOutcome{}, err
	}
	sp := obs.StartSpan("tune/measure").WithWorker(tb.Worker).WithDetail(w.Name)
	defer sp.End()
	tb.Meter.SetTemperature(65)
	if err := tb.Meter.SetClock(clockMHz); err != nil {
		return pointOutcome{}, err
	}
	m, attempts, err := tb.measurePoint(kt)
	tb.Meter.ResetClock()
	if err != nil {
		return pointOutcome{attempts: attempts, errMsg: err.Error()}, nil
	}
	return pointOutcome{m: m, attempts: attempts}, nil
}

// Profile returns the hardware performance counters for the workload at the
// base clock (the Nsight Compute step of the HW/HYBRID variants).
func (tb *Testbench) Profile(w Workload) (*silicon.Counters, error) {
	return tb.arts.profiles.Do(w.Name, func() (*silicon.Counters, error) {
		kt, err := tb.Trace(w, isa.SASS)
		if err != nil {
			return nil, err
		}
		sp := obs.StartSpan("tune/profile").WithWorker(tb.Worker).WithDetail(w.Name)
		defer sp.End()
		c, _, err := withRetry(tb.Policy, func() (*silicon.Counters, error) { return tb.Meter.Profile(kt) })
		if err != nil {
			tb.noteFailure(w.Name)
			return nil, fmt.Errorf("tune: profiling %s: %v: %w", w.Name, err, ErrMeasurement)
		}
		return c, nil
	})
}

// Simulate runs the performance simulator on the workload at the given ISA
// level, caching results.
func (tb *Testbench) Simulate(w Workload, level isa.Level) (*sim.Result, error) {
	return tb.arts.simRuns.Do(traceKey{w.Name, level}, func() (*sim.Result, error) {
		kt, err := tb.Trace(w, level)
		if err != nil {
			return nil, err
		}
		r, err := tb.Sim.Run(kt)
		if err != nil {
			return nil, fmt.Errorf("tune: simulating %s: %w", w.Name, err)
		}
		return r, nil
	})
}
