// Package accelwattch is a Go implementation of AccelWattch (Kandiah et
// al., MICRO 2021), a constant, static, and dynamic power model for modern
// GPUs, together with everything needed to construct and validate it:
// a synthetic-silicon measurement target, a trace-driven performance
// simulator, the 102-microbenchmark tuning suite, the quadratic-programming
// optimiser, the 26-kernel validation suite, and the paper's case studies.
//
// The typical flow mirrors Figure 1 of the paper:
//
//	sess, err := accelwattch.NewSession(accelwattch.Volta(), accelwattch.Quick)
//	...
//	res, err := sess.Validate(accelwattch.SASSSIM)
//	fmt.Printf("MAPE %.1f%%\n", res.MAPE)
//
// NewSession builds the testbench (silicon device plus simulator), runs the
// tuning pipeline — DVFS constant-power estimation, power-gating and
// divergence-aware static modelling, idle-SM modelling, and QP dynamic
// tuning for all four variants — and returns a Session exposing the
// evaluation entry points.
package accelwattch

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"accelwattch/internal/config"
	"accelwattch/internal/core"
	"accelwattch/internal/emu"
	"accelwattch/internal/eval"
	"accelwattch/internal/faults"
	"accelwattch/internal/gpuwattch"
	"accelwattch/internal/isa"
	"accelwattch/internal/obs"
	"accelwattch/internal/tune"
	"accelwattch/internal/ubench"
	"accelwattch/internal/workloads"
)

// Re-exported configuration types and constructors.
type (
	// Arch describes a GPU architecture (Table 3 targets).
	Arch = config.Arch
	// Scale trades tuning fidelity for speed.
	Scale = ubench.Scale
	// Variant selects how the power model is driven.
	Variant = tune.Variant
	// Model is a tuned AccelWattch power model.
	Model = core.Model
	// Activity is the per-window activity vector driving the model.
	Activity = core.Activity
	// Breakdown is a per-component power report.
	Breakdown = core.Breakdown
	// ValidationResult aggregates measured-versus-estimated statistics.
	ValidationResult = eval.ValidationResult
	// Kernel is one validation-suite workload.
	Kernel = workloads.Kernel
	// Category is the behavioural class of an AI-inference pack kernel
	// (gemm, attention, tensorcore, memory, parked).
	Category = workloads.Category
	// CategoryResult is one category's error row of a by-category run.
	CategoryResult = eval.CategoryResult
	// CategoryValidation pairs a validation result with its per-category
	// error table.
	CategoryValidation = eval.CategoryValidation
	// TuneResult is the complete output of the tuning pipeline.
	TuneResult = tune.Result
	// FaultProfile configures the deterministic power-meter fault
	// injector (internal/faults): Gaussian noise, quantization, EMA lag,
	// transient errors, dropped samples, stuck-at readings, and spikes.
	FaultProfile = faults.Profile
	// FaultStats counts the faults a session's meter actually injected.
	FaultStats = faults.Stats
)

// Variants.
const (
	SASSSIM = tune.SASSSIM
	PTXSIM  = tune.PTXSIM
	HW      = tune.HW
	HYBRID  = tune.HYBRID
)

// Stock architectures (Table 3).
func Volta() *Arch  { return config.Volta() }
func Pascal() *Arch { return config.Pascal() }
func Turing() *Arch { return config.Turing() }

// Tuning scales.
var (
	Quick = ubench.Quick
	Full  = ubench.Full
)

// Session is a tuned AccelWattch deployment for one architecture.
type Session struct {
	tb      *tune.Testbench
	ex      *tune.Exec
	tuned   *tune.Result
	arch    *Arch
	scale   Scale
	workers int

	// kernels holds every kernel passed to EstimateKernel or PowerTrace,
	// so that no later kernel takes an address that names store entries.
	kernels sync.Map
}

// NewSession builds the testbench for an architecture and runs the full
// tuning pipeline of Figure 1 at the given scale.
func NewSession(arch *Arch, sc Scale) (*Session, error) {
	return NewSessionWithOptions(arch, sc, SessionOptions{})
}

// SessionOptions customises how a session measures and tunes. The zero
// value reproduces NewSession exactly: a clean meter and the clean
// measurement policy, bit-identical to the unhardened pipeline. Every
// operating point is measured in process, by the engine's worker replicas.
type SessionOptions struct {
	// Faults wires a deterministic fault injector between the tuning
	// pipeline and the synthetic-silicon power meter. Nil (or a profile
	// with every injector off) keeps the clean meter. An enabled profile
	// installs the hardened measurement policy (repeats, outlier
	// rejection, robust fits, quarantine; see tune.MeterPolicy).
	Faults *FaultProfile

	// Workers sets the execution-engine pool size used for tuning and
	// evaluation: 0 means GOMAXPROCS, values < 0 mean 1. Results are
	// bit-identical at every worker count — parallelism only changes
	// wall-clock time.
	Workers int
}

// NamedFaultProfile returns a canned fault profile by name ("noisy",
// "flaky", "chaos", ...; see NamedFaultProfiles) seeded for determinism.
func NamedFaultProfile(name string, seed int64) (FaultProfile, error) {
	return faults.Named(name, seed)
}

// NamedFaultProfiles lists the canned fault-profile names.
func NamedFaultProfiles() []string { return faults.Names() }

// NewWorkerTestbench builds the measurement testbench exactly as a session
// would — same fault-injector wrapping, same policy selection — without
// running the tuning pipeline, for callers that drive the testbench's
// stages themselves. Workers in opts is ignored here.
func NewWorkerTestbench(arch *Arch, sc Scale, opts SessionOptions) (*tune.Testbench, error) {
	tb, err := tune.NewTestbench(arch, sc)
	if err != nil {
		return nil, err
	}
	if opts.Faults != nil {
		fm, err := faults.NewFaultyMeter(tb.Device, *opts.Faults)
		if err != nil {
			return nil, err
		}
		pol := tune.DefaultMeterPolicy()
		if opts.Faults.Enabled() {
			pol = tune.HardenedMeterPolicy()
		}
		tb.UseMeter(fm, pol)
	}
	return tb, nil
}

// NewSessionWithOptions is NewSession with an optional fault-injected
// meter and the execution-engine worker count.
func NewSessionWithOptions(arch *Arch, sc Scale, opts SessionOptions) (*Session, error) {
	workers := opts.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	tb, err := NewWorkerTestbench(arch, sc, opts)
	if err != nil {
		return nil, err
	}
	// The engine is built after UseMeter so replicas wrap the installed
	// meter (fault state is shared across replicas; see internal/faults).
	ex, err := tune.NewExec(context.Background(), tb, workers)
	if err != nil {
		return nil, err
	}
	// The session root span covers construction and tuning; later
	// evaluation stages still parent under it by ID, so an exported trace
	// nests session -> stage -> workload even for post-tune work.
	sessSpan := obs.StartSpan("session").WithDetail(arch.Name)
	ex.WithSpan(sessSpan)
	tuned, err := ex.Tune(tune.Options{})
	sessSpan.End()
	if err != nil {
		return nil, err
	}
	return &Session{tb: tb, ex: ex, tuned: tuned, arch: arch, scale: sc, workers: workers}, nil
}

// Workers returns the execution-engine pool size the session tunes and
// evaluates with.
func (s *Session) Workers() int { return s.workers }

// FaultStats reports the fault counters of a fault-injected session's
// meter; ok is false for sessions measuring through the clean device.
func (s *Session) FaultStats() (stats FaultStats, ok bool) {
	if fm, isFaulty := s.tb.Meter.(*faults.FaultyMeter); isFaulty {
		return fm.Stats(), true
	}
	return FaultStats{}, false
}

// Quarantined lists workloads the tuning pipeline removed after repeated
// measurement failures, each as "name: reason". Empty on clean runs.
func (s *Session) Quarantined() []string { return s.tuned.Quarantined }

// Arch returns the session's architecture.
func (s *Session) Arch() *Arch { return s.arch }

// Tuned exposes the tuning outcome (constant power, divergence fits,
// idle-SM model, per-variant dynamic fits).
func (s *Session) Tuned() *TuneResult { return s.tuned }

// Model returns the tuned model for a variant.
func (s *Session) Model(v Variant) *Model { return s.tuned.Model(v) }

// Testbench exposes the underlying device+simulator pair for advanced use
// (the cmd/ tools and the benchmark harness build on it).
func (s *Session) Testbench() *tune.Testbench { return s.tb }

// ValidationSuite returns the Table 4 kernels for this architecture.
func (s *Session) ValidationSuite() ([]Kernel, error) {
	return workloads.ValidationSuite(s.arch, s.scale)
}

// InferencePack returns the AI-inference workload pack for this
// architecture: GEMM batch/sequence sweeps, attention kernels, tensor-core
// density mixes, memory-bound serving kernels, and the parked-model
// scenarios, each tagged with its Category.
func (s *Session) InferencePack() ([]Kernel, error) {
	return workloads.InferencePack(s.arch, s.scale)
}

// ValidateByCategory validates the AI-inference pack under one variant and
// reports error statistics per category alongside the aggregate result.
func (s *Session) ValidateByCategory(v Variant) (*CategoryValidation, error) {
	pack, err := s.InferencePack()
	if err != nil {
		return nil, err
	}
	return eval.ValidateByCategory(s.ex, s.tuned.Model(v), v, pack)
}

// ValidateAllByCategory runs ValidateByCategory for all four variants.
func (s *Session) ValidateAllByCategory() (map[Variant]*CategoryValidation, error) {
	pack, err := s.InferencePack()
	if err != nil {
		return nil, err
	}
	return eval.ValidateAllByCategory(s.ex, s.tuned, pack)
}

// Validate runs the validation suite under one variant (Figure 7).
func (s *Session) Validate(v Variant) (*ValidationResult, error) {
	suite, err := s.ValidationSuite()
	if err != nil {
		return nil, err
	}
	return eval.ValidateExec(s.ex, s.tuned.Model(v), v, suite)
}

// ValidateAll runs all four variants (Figure 7a-d).
func (s *Session) ValidateAll() (map[Variant]*ValidationResult, error) {
	suite, err := s.ValidationSuite()
	if err != nil {
		return nil, err
	}
	return eval.ValidateAllExec(s.ex, s.tuned, suite)
}

// CaseStudy applies this session's Volta-tuned model to another
// architecture without retuning (Section 7.1).
func (s *Session) CaseStudy(target *Arch) (*eval.CaseStudyResult, error) {
	return eval.CaseStudy(s.tuned, target, s.scale, s.workers)
}

// DeepBench runs the Section 7.2 case study with the SASS SIM model.
func (s *Session) DeepBench() ([]eval.DeepBenchResult, float64, error) {
	suite := workloads.DeepBenchSuite(s.arch, s.scale)
	return eval.DeepBenchStudyExec(s.ex, s.tuned.Model(SASSSIM), suite)
}

// CompareGPUWattch applies the legacy GPUWattch Fermi configuration to this
// architecture's validation suite (Section 7.3).
func (s *Session) CompareGPUWattch() (*eval.GPUWattchComparison, error) {
	suite, err := s.ValidationSuite()
	if err != nil {
		return nil, err
	}
	return eval.CompareGPUWattch(s.tb, gpuwattch.Model(s.arch), suite)
}

// EstimateKernel runs an arbitrary PTX-level kernel through the performance
// model of the chosen variant and returns the power breakdown — the
// "experiment customisation" path of the artifact appendix. The session
// keeps what it computed for k, so k and setup must not change between
// calls.
func (s *Session) EstimateKernel(k *isa.Kernel, setup func(*emu.Memory), v Variant) (Breakdown, error) {
	a, err := s.tb.Activity(s.kernelWorkload(k, setup), v)
	if err != nil {
		return Breakdown{}, err
	}
	return s.tuned.Model(v).Estimate(a)
}

// PowerTrace returns the cycle-level power trace (one sample per 500-cycle
// window, Section 5.2) of a kernel under the SASS SIM variant, plus the
// time-weighted average power. As for EstimateKernel, k and setup must not
// change between calls.
func (s *Session) PowerTrace(k *isa.Kernel, setup func(*emu.Memory)) ([]float64, float64, error) {
	r, err := s.tb.Simulate(s.kernelWorkload(k, setup), isa.SASS)
	if err != nil {
		return nil, 0, err
	}
	return s.tuned.Model(SASSSIM).EstimateTrace(r.Windows)
}

// kernelWorkload names a caller's kernel for the testbench's artifact
// store, which keys by workload name and already holds every suite
// workload under its own: the kernel's name plus its address, which no
// suite workload shares, and no other kernel either, because the session
// keeps k reachable. Measurements do not move, because silicon's noise
// seed and the fault meter's point key hash the kernel's own name.
func (s *Session) kernelWorkload(k *isa.Kernel, setup func(*emu.Memory)) tune.Workload {
	s.kernels.Store(k, nil)
	return tune.Workload{Name: fmt.Sprintf("%s@%p", k.Name, k), Kernel: k, Setup: setup}
}

// Assemble compiles textual kernel assembly (see internal/isa's format) —
// the entry point cmd/awsim uses for user-supplied kernels.
func Assemble(src string) (*isa.Kernel, error) { return isa.Assemble(src) }

// defaultSessions caches one tuned session per architecture+scale for the
// test and benchmark harnesses: tuning is expensive and deterministic, so
// every test shares it.
var (
	defaultMu       sync.Mutex
	defaultSessions = map[string]*Session{}
)

// SharedSession returns a process-wide cached session for the architecture
// at the given scale, tuning on first use.
func SharedSession(arch *Arch, sc Scale) (*Session, error) {
	key := fmt.Sprintf("%s/%d/%d/%d", arch.Name, sc.Iters, sc.Unroll, sc.WarpsPerCTA)
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if s, ok := defaultSessions[key]; ok {
		return s, nil
	}
	s, err := NewSession(arch, sc)
	if err != nil {
		return nil, err
	}
	defaultSessions[key] = s
	return s, nil
}

// SetModel replaces the tuned model for a variant, e.g. with one loaded
// from a saved config file (see internal/core's Save/LoadModel and the
// awtune -o / awsim -model flags). The model must target this session's
// architecture.
func (s *Session) SetModel(v Variant, m *Model) {
	s.tuned.Models[v] = m
}
