package silicon

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"accelwattch/internal/cachesim"
	"accelwattch/internal/config"
	"accelwattch/internal/trace"
)

// Device is one synthetic GPU. It exposes the interface real hardware
// offers the paper's methodology: clock locking (nvidia-smi), a temperature,
// trace replay (kernels "run" on the device), an NVML-style power meter and
// an Nsight-style profiler.
type Device struct {
	arch     *config.Arch
	t        *truth
	l1cfg    cachesim.Config
	l2cfg    cachesim.Config
	memo     *replayMemo
	clockMHz float64
	tempC    float64
}

// NewDevice builds the synthetic device for an architecture with a
// ground-truth model (Volta, Pascal, Turing).
func NewDevice(arch *config.Arch) (*Device, error) {
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	t, err := truthFor(arch.Name)
	if err != nil {
		return nil, err
	}
	l2cfg := cachesim.Config{
		SizeBytes: arch.L2KB * 1024, LineBytes: arch.L2LineBytes,
		Assoc: arch.L2Assoc, Sectored: true, WriteAllocate: true,
	}
	l1cfg := cachesim.Config{
		SizeBytes: arch.L1KBPerSM * 1024, LineBytes: arch.L1LineBytes,
		Assoc: arch.L1Assoc, Sectored: true, WriteAllocate: false,
	}
	if err := l2cfg.Validate(); err != nil {
		return nil, fmt.Errorf("silicon: L2 model: %w", err)
	}
	if err := l1cfg.Validate(); err != nil {
		return nil, fmt.Errorf("silicon: L1 model: %w", err)
	}
	return &Device{arch: arch, t: t, l1cfg: l1cfg, l2cfg: l2cfg,
		memo: newReplayMemo(), clockMHz: arch.BaseClockMHz, tempC: 65}, nil
}

// Replica returns another device of the same architecture at the base
// clock and 65C. It shares this device's replay memo, so a trace replayed
// on either is simulated through the memory hierarchy once. A device's
// clock and temperature are its own: give each goroutine its own replica.
func (d *Device) Replica() *Device {
	r := *d
	r.clockMHz, r.tempC = d.arch.BaseClockMHz, 65
	return &r
}

// Arch returns the device's architecture description.
func (d *Device) Arch() *config.Arch { return d.arch }

// SetClock locks the core clock, like `nvidia-smi -lgc`. Frequencies
// outside the device's supported range are rejected.
func (d *Device) SetClock(mhz float64) error {
	if mhz < d.arch.MinClockMHz || mhz > d.arch.MaxClockMHz {
		return fmt.Errorf("silicon: %s: clock %.0f MHz outside [%.0f, %.0f]",
			d.arch.Name, mhz, d.arch.MinClockMHz, d.arch.MaxClockMHz)
	}
	d.clockMHz = mhz
	return nil
}

// ResetClock restores the default applications clock.
func (d *Device) ResetClock() { d.clockMHz = d.arch.BaseClockMHz }

// ClockMHz returns the current locked core clock.
func (d *Device) ClockMHz() float64 { return d.clockMHz }

// SetTemperature sets the die temperature in Celsius; the measurement
// methodology of Section 4.1 brings the chip to 65C before measuring.
func (d *Device) SetTemperature(c float64) { d.tempC = c }

// Temperature returns the die temperature.
func (d *Device) Temperature() float64 { return d.tempC }

// Measurement is what the NVML-like meter reports for one steady-state
// kernel execution (the paper loops the kernel so it spans many NVML
// samples; we synthesise the same sample population).
type Measurement struct {
	AvgPowerW float64   // mean over samples
	Samples   []float64 // individual NVML samples (noisy)
	Cycles    float64   // elapsed core cycles
	RuntimeS  float64   // elapsed wall time
	ClockMHz  float64
}

// Counters is the Nsight Compute stand-in: the hardware performance
// counters real Volta exposes. Deliberately absent, as on real silicon
// (Section 5.1): L1 instruction cache accesses, register-file accesses and
// DRAM precharge counts.
type Counters struct {
	ElapsedCycles float64
	ActiveSMs     int

	InstIssued int64 // warp-level instructions
	ThreadInst int64 // lane-weighted instructions
	InstINT    int64
	InstFP32   int64
	InstFP64   int64
	InstSFU    int64
	InstTensor int64
	InstTex    int64
	InstLDST   int64
	InstCtrl   int64
	AvgLanes   float64

	L1Accesses     uint64
	L1Misses       uint64
	SharedAccesses uint64
	ConstAccesses  uint64
	TexAccesses    uint64
	L2Accesses     uint64
	L2Misses       uint64
	DramReads      uint64
	DramWrites     uint64
}

// Run replays one or more kernel traces concurrently (CTAs interleaved
// round-robin across SMs, as a multi-stream launch would) and returns the
// power measurement. Traces must be at the SASS level: real silicon does
// not execute PTX. A single trace's replay is memoized by pointer (see
// replayMemo), so a trace must not be modified once it has run.
func (d *Device) Run(kts ...*trace.KernelTrace) (*Measurement, error) {
	fp, cycles, err := d.replay(kts)
	if err != nil {
		return nil, err
	}
	return d.measurement(kts, fp, cycles), nil
}

// measurement synthesises the meter's reading of a replay.
func (d *Device) measurement(kts []*trace.KernelTrace, fp *footprint, cycles float64) *Measurement {
	truePower := d.power(fp, cycles)
	m := &Measurement{
		Cycles:   cycles,
		RuntimeS: cycles / (d.clockMHz * 1e6),
		ClockMHz: d.clockMHz,
	}
	// Synthesise NVML samples: 24 samples at 50-100 Hz over a looped
	// execution, with sub-percent sample noise (the paper reports
	// 0.0018-1.9% variance across measurements).
	rng := rand.New(rand.NewSource(d.noiseSeed(kts)))
	const nSamples = 24
	sum := 0.0
	for i := 0; i < nSamples; i++ {
		s := truePower * (1 + 0.006*rng.NormFloat64())
		m.Samples = append(m.Samples, s)
		sum += s
	}
	m.AvgPowerW = sum / nSamples
	return m
}

// Profile replays the traces and returns the hardware performance counters,
// as Nsight Compute would (serialising concurrent kernels, like Nsight,
// does not change these aggregate counters in our model).
func (d *Device) Profile(kts ...*trace.KernelTrace) (*Counters, error) {
	fp, cycles, err := d.replay(kts)
	if err != nil {
		return nil, err
	}
	return profile(fp, cycles), nil
}

// profile fills the counter block of a replay.
func profile(fp *footprint, cycles float64) *Counters {
	c := fp.counters
	c.ElapsedCycles = cycles
	c.ActiveSMs = fp.activeSMs
	if c.InstIssued > 0 {
		c.AvgLanes = float64(c.ThreadInst) / float64(c.InstIssued)
	}
	return &c
}

// noiseSeed derives a deterministic seed from the run so measurements are
// reproducible but uncorrelated across kernels and clock settings.
func (d *Device) noiseSeed(kts []*trace.KernelTrace) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%.1f|%.1f", d.arch.Name, d.clockMHz, d.tempC)
	for _, kt := range kts {
		fmt.Fprintf(h, "|%s|%d", kt.Kernel.Name, len(kt.Warps))
	}
	return int64(h.Sum64())
}

// power converts a replay's footprint and cycles into true total watts at
// the current clock and temperature. Dynamic energy scales with V^2 (the f
// factor arrives through runtime); static power scales with V and
// exponentially with temperature; constant power does not scale.
func (d *Device) power(a *footprint, cycles float64) float64 {
	v := d.arch.Voltage(d.clockMHz) / d.arch.BaseVoltage()
	tempF := math.Exp(d.t.tempCoeff * (d.tempC - 65))
	timeS := cycles / (d.clockMHz * 1e6)

	p := d.t.constW
	if a.activeSMs == 0 {
		return p
	}
	dynW := a.dynEnergyPJ * 1e-12 * v * v / timeS
	staticW := d.t.chipGlobalW +
		d.t.smStaticW*float64(a.activeSMs) +
		d.t.laneStaticW*a.poweredLanes +
		d.t.idleSMW*float64(d.arch.NumSMs-a.activeSMs)
	return p + dynW + staticW*v*tempF
}

// MeasureIdle reads the NVML power of the inactive chip — no kernel
// resident, every SM power-gated. Figure 3's first bar: the chip draws only
// its constant power (fans, peripheral circuitry).
func (d *Device) MeasureIdle() *Measurement {
	rng := rand.New(rand.NewSource(d.noiseSeed(nil) ^ 0x1d1e))
	m := &Measurement{ClockMHz: d.clockMHz}
	true0 := d.power(&footprint{}, 1)
	const nSamples = 24
	sum := 0.0
	for i := 0; i < nSamples; i++ {
		s := true0 * (1 + 0.006*rng.NormFloat64())
		m.Samples = append(m.Samples, s)
		sum += s
	}
	m.AvgPowerW = sum / nSamples
	return m
}
