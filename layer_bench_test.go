package accelwattch

import (
	"testing"

	"accelwattch/internal/config"
	"accelwattch/internal/emu"
	"accelwattch/internal/isa"
	"accelwattch/internal/silicon"
	"accelwattch/internal/sim"
	"accelwattch/internal/trace"
	"accelwattch/internal/tune"
	"accelwattch/internal/ubench"
	"accelwattch/internal/workloads"
)

// The per-layer benchmarks time the pipeline's first three layers, and
// emu's lowering of PTX traces to SASS, on a fixed list of Quick-scale
// Volta validation kernels, at both ISA levels (silicon runs SASS only,
// the lowering reads PTX only): integer and FP32 ALU work (binOpt, sobol),
// SFU-heavy code (mriq), global loads and atomics (kmeans, histo), shared
// memory behind barriers (walsh, sgemm) and divergent pointer chasing
// (b+tree). Each reports ns/warp-instr, the unit perfbench's traced run
// reports as emu.ns_per_instr and sim.ns_per_instr.
var layerKernels = []string{"binOpt_K1", "sobol_K1", "mriq_K1", "kmeans_K1", "histo_K1",
	"walsh_K1", "sgemm_K1", "b+tree_K1"}

type layerCase struct {
	kernel *isa.Kernel
	setup  func(*emu.Memory)
}

func layerCases(b *testing.B) []layerCase {
	b.Helper()
	suite, err := workloads.ValidationSuite(config.Volta(), ubench.Quick)
	if err != nil {
		b.Fatal(err)
	}
	byName := make(map[string]workloads.Kernel, len(suite))
	for _, k := range suite {
		byName[k.Name] = k
	}
	var cases []layerCase
	for _, name := range layerKernels {
		k, ok := byName[name]
		if !ok {
			b.Fatalf("no kernel %s in the Quick suite", name)
		}
		for _, level := range []isa.Level{isa.PTX, isa.SASS} {
			kk, err := isa.ForLevel(k.Kernel, level)
			if err != nil {
				b.Fatal(err)
			}
			cases = append(cases, layerCase{kk, k.Setup})
		}
	}
	return cases
}

func (c layerCase) trace(b *testing.B) *trace.KernelTrace {
	mem := emu.NewMemory()
	if c.setup != nil {
		c.setup(mem)
	}
	kt, err := emu.Run(c.kernel, mem)
	if err != nil {
		b.Fatal(err)
	}
	return kt
}

func warpInstrs(kt *trace.KernelTrace) int64 {
	var n int64
	for i := range kt.Warps {
		n += int64(len(kt.Warps[i].Recs))
	}
	return n
}

// BenchmarkLayerEmu times emu.Run, memory setup included, over the layer
// kernels.
func BenchmarkLayerEmu(b *testing.B) {
	cases := layerCases(b)
	b.ReportAllocs()
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		for _, c := range cases {
			instrs += warpInstrs(c.trace(b))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/warp-instr")
}

// BenchmarkLayerLower times emu.Lower, which builds a PTX workload's SASS
// trace from its PTX trace, over the layer kernels' PTX traces, built
// before the timer starts. ns/warp-instr is per SASS record delivered.
func BenchmarkLayerLower(b *testing.B) {
	var kts []*trace.KernelTrace
	for _, c := range layerCases(b) {
		if c.kernel.Level == isa.PTX {
			kts = append(kts, c.trace(b))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		for _, kt := range kts {
			lowered, err := emu.Lower(kt)
			if err != nil {
				b.Fatal(err)
			}
			instrs += warpInstrs(lowered)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/warp-instr")
}

// BenchmarkLayerSim times sim.Run over the layer kernels' traces, which
// are built before the timer starts.
func BenchmarkLayerSim(b *testing.B) {
	cases := layerCases(b)
	s, err := sim.New(config.Volta())
	if err != nil {
		b.Fatal(err)
	}
	kts := make([]*trace.KernelTrace, len(cases))
	for i, c := range cases {
		kts[i] = c.trace(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		for _, kt := range kts {
			r, err := s.Run(kt)
			if err != nil {
				b.Fatal(err)
			}
			instrs += r.WarpInstrs
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/warp-instr")
}

// BenchmarkLayerSilicon times silicon replay the way the tuning flow drives
// it: each iteration builds a fresh device, runs every layer kernel's SASS
// trace at each point of the default DVFS sweep, then profiles it once at
// the base clock. Traces are built before the timer starts; ns/warp-instr
// is per replayed record, so a trace counts once per clock point and once
// for its profile.
func BenchmarkLayerSilicon(b *testing.B) {
	arch := config.Volta()
	var kts []*trace.KernelTrace
	for _, c := range layerCases(b) {
		if c.kernel.Level == isa.SASS {
			kts = append(kts, c.trace(b))
		}
	}
	clocks := tune.DefaultSweep(arch.MinClockMHz+65, arch.MaxClockMHz).Points()
	b.ReportAllocs()
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		d, err := silicon.NewDevice(arch)
		if err != nil {
			b.Fatal(err)
		}
		for _, kt := range kts {
			for _, mhz := range clocks {
				if err := d.SetClock(mhz); err != nil {
					b.Fatal(err)
				}
				if _, err := d.Run(kt); err != nil {
					b.Fatal(err)
				}
			}
			d.ResetClock()
			if _, err := d.Profile(kt); err != nil {
				b.Fatal(err)
			}
			instrs += warpInstrs(kt) * int64(len(clocks)+1)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/warp-instr")
}
