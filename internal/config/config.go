// Package config describes the GPU architectures targeted by the framework:
// the simulated-silicon devices used as measurement targets (Table 3 of the
// paper) and the architecture parameters consumed by the performance
// simulator and the power model.
//
// The three stock configurations mirror the paper's validation and
// case-study targets: a Volta Quadro GV100, a Pascal TITAN X, and a Turing
// RTX 2060 SUPER.
package config

import "fmt"

// Arch describes one GPU architecture. All power-model and simulator
// parameters that vary between the paper's three targets live here; the
// hidden "true" power parameters of the synthetic silicon live in package
// silicon and are deliberately not part of this struct.
type Arch struct {
	Name string

	// SM organisation (Section 3 of the paper).
	NumSMs          int // streaming multiprocessors on the chip
	WarpSize        int // threads per warp (32 on all targets)
	ProcBlocksPerSM int // processing blocks (sub-cores) per SM
	LanesPerBlock   int // execution lanes per processing block for 32-bit ops
	MaxCTAsPerSM    int // concurrency limit used by the CTA scheduler
	MaxWarpsPerSM   int

	// Clocks and DVFS. BaseClockMHz is the "default applications clock"
	// the paper locks for power measurements; MinClockMHz/MaxClockMHz
	// bound the frequency sweeps of Section 4.2. VoltSlope/VoltOffset
	// give the near-linear frequency-voltage curve V(f) = slope*f +
	// offset (f in GHz, V in volts) observed on fully-realised
	// processors [18, 51].
	BaseClockMHz float64
	MinClockMHz  float64
	MaxClockMHz  float64
	VoltSlope    float64
	VoltOffset   float64

	// Memory hierarchy geometry.
	L1KBPerSM    int // unified L1 data cache / shared memory per SM
	L1LineBytes  int
	L1Assoc      int
	L2KB         int // chip-wide unified L2
	L2LineBytes  int
	L2Assoc      int
	L2Slices     int
	DRAMChannels int
	DRAMGBps     float64 // peak DRAM bandwidth

	// Capabilities.
	HasTensorCores bool

	// Physical parameters.
	TechNodeNM  int     // process node (12 for Volta/Turing, 16 for Pascal)
	PowerLimitW float64 // board power limit (Table 3)
}

// Validate reports a descriptive error when the architecture description is
// internally inconsistent.
func (a *Arch) Validate() error {
	switch {
	case a.Name == "":
		return fmt.Errorf("config: architecture has no name")
	case a.NumSMs <= 0:
		return fmt.Errorf("config: %s: NumSMs must be positive, got %d", a.Name, a.NumSMs)
	case a.WarpSize != 32:
		return fmt.Errorf("config: %s: WarpSize must be 32, got %d", a.Name, a.WarpSize)
	case a.ProcBlocksPerSM <= 0 || a.LanesPerBlock <= 0:
		return fmt.Errorf("config: %s: processing-block geometry must be positive", a.Name)
	case a.LanesPerBlock*2 != a.WarpSize:
		// A processing block's 16 lanes execute a 32-wide warp as two
		// half-warps.
		return fmt.Errorf("config: %s: %d lanes per block cannot execute a %d-wide warp as two half-warps",
			a.Name, a.LanesPerBlock, a.WarpSize)
	case a.BaseClockMHz <= 0 || a.MinClockMHz <= 0 || a.MaxClockMHz < a.BaseClockMHz:
		return fmt.Errorf("config: %s: clock range is inconsistent", a.Name)
	case a.MinClockMHz > a.MaxClockMHz:
		return fmt.Errorf("config: %s: inverted clock range [%.0f, %.0f] MHz",
			a.Name, a.MinClockMHz, a.MaxClockMHz)
	case a.BaseClockMHz < a.MinClockMHz:
		return fmt.Errorf("config: %s: base clock %.0f MHz below minimum %.0f MHz",
			a.Name, a.BaseClockMHz, a.MinClockMHz)
	case a.VoltSlope <= 0:
		return fmt.Errorf("config: %s: VoltSlope must be positive", a.Name)
	case a.Voltage(a.MinClockMHz) <= 0:
		// With a positive slope the minimum-clock voltage is the lowest
		// the sweep will see; a non-positive value means VoltOffset drags
		// V(f) through zero inside the DVFS range.
		return fmt.Errorf("config: %s: voltage %.3f V at the minimum clock is not positive",
			a.Name, a.Voltage(a.MinClockMHz))
	case a.L1KBPerSM <= 0 || a.L2KB <= 0:
		return fmt.Errorf("config: %s: cache sizes must be positive", a.Name)
	case a.DRAMGBps <= 0:
		return fmt.Errorf("config: %s: DRAM bandwidth must be positive", a.Name)
	case a.TechNodeNM <= 0:
		return fmt.Errorf("config: %s: technology node must be positive", a.Name)
	case a.PowerLimitW <= 0:
		return fmt.Errorf("config: %s: power limit must be positive", a.Name)
	}
	return nil
}

// Voltage returns the supply voltage at the given core clock, following the
// near-linear V-f relationship of Section 4.2.
func (a *Arch) Voltage(clockMHz float64) float64 {
	return a.VoltSlope*(clockMHz/1000) + a.VoltOffset
}

// BaseVoltage is the voltage at the default applications clock.
func (a *Arch) BaseVoltage() float64 { return a.Voltage(a.BaseClockMHz) }

// Volta returns the configuration of the NVIDIA Quadro GV100 used for
// validation (Table 3): 80 SMs, 12 nm, 1417 MHz application clock, 250 W.
func Volta() *Arch {
	return &Arch{
		Name:            "volta-gv100",
		NumSMs:          80,
		WarpSize:        32,
		ProcBlocksPerSM: 4,
		LanesPerBlock:   16,
		MaxCTAsPerSM:    32,
		MaxWarpsPerSM:   64,
		BaseClockMHz:    1417,
		MinClockMHz:     135,
		MaxClockMHz:     1627,
		VoltSlope:       0.52,
		VoltOffset:      0.06,
		L1KBPerSM:       128,
		L1LineBytes:     128,
		L1Assoc:         4,
		L2KB:            6144,
		L2LineBytes:     128,
		L2Assoc:         16,
		L2Slices:        32,
		DRAMChannels:    8,
		DRAMGBps:        870,
		HasTensorCores:  true,
		TechNodeNM:      12,
		PowerLimitW:     250,
	}
}

// Pascal returns the configuration of the NVIDIA TITAN X (Pascal) case-study
// target (Table 3): 28 SMs, 16 nm, 1470 MHz, 250 W, no tensor cores.
func Pascal() *Arch {
	return &Arch{
		Name:            "pascal-titanx",
		NumSMs:          28,
		WarpSize:        32,
		ProcBlocksPerSM: 4,
		LanesPerBlock:   16,
		MaxCTAsPerSM:    32,
		MaxWarpsPerSM:   64,
		BaseClockMHz:    1470,
		MinClockMHz:     139,
		MaxClockMHz:     1911,
		VoltSlope:       0.50,
		VoltOffset:      0.08,
		L1KBPerSM:       48,
		L1LineBytes:     128,
		L1Assoc:         4,
		L2KB:            3072,
		L2LineBytes:     128,
		L2Assoc:         16,
		L2Slices:        24,
		DRAMChannels:    12,
		DRAMGBps:        480,
		HasTensorCores:  false,
		TechNodeNM:      16,
		PowerLimitW:     250,
	}
}

// Turing returns the configuration of the NVIDIA RTX 2060 SUPER case-study
// target (Table 3): 34 SMs, 12 nm, 1905 MHz, 175 W.
func Turing() *Arch {
	return &Arch{
		Name:            "turing-rtx2060s",
		NumSMs:          34,
		WarpSize:        32,
		ProcBlocksPerSM: 4,
		LanesPerBlock:   16,
		MaxCTAsPerSM:    16,
		MaxWarpsPerSM:   32,
		BaseClockMHz:    1905,
		MinClockMHz:     300,
		MaxClockMHz:     2100,
		VoltSlope:       0.42,
		VoltOffset:      0.10,
		L1KBPerSM:       96,
		L1LineBytes:     128,
		L1Assoc:         4,
		L2KB:            4096,
		L2LineBytes:     128,
		L2Assoc:         16,
		L2Slices:        16,
		DRAMChannels:    8,
		DRAMGBps:        448,
		HasTensorCores:  true,
		TechNodeNM:      12,
		PowerLimitW:     175,
	}
}

// FullName maps an architecture alias onto the full config name of the
// stock architecture it denotes ("titanx" -> "pascal-titanx"). It is the
// one alias table: everything that accepts an architecture by name reads
// it, and it allocates nothing, so request routing can call it per request.
func FullName(alias string) (string, bool) {
	switch alias {
	case "volta", "volta-gv100", "gv100":
		return "volta-gv100", true
	case "pascal", "pascal-titanx", "titanx":
		return "pascal-titanx", true
	case "turing", "turing-rtx2060s", "rtx2060s":
		return "turing-rtx2060s", true
	}
	return "", false
}

// ByName returns the stock architecture an alias denotes (see FullName).
func ByName(name string) (*Arch, error) {
	switch full, _ := FullName(name); full {
	case "volta-gv100":
		return Volta(), nil
	case "pascal-titanx":
		return Pascal(), nil
	case "turing-rtx2060s":
		return Turing(), nil
	}
	return nil, fmt.Errorf("config: unknown architecture %q", name)
}
