package tune

import (
	"fmt"
	"math"

	"accelwattch/internal/isa"
	"accelwattch/internal/stats"
	"accelwattch/internal/ubench"
)

// TemperatureFit is the experimentally-derived temperature factor of
// Section 4.1: "one can model temperature variations by multiplying the
// modeled static power with an experimentally-derived temperature-dependent
// factor". The factor is exp(Coeff*(T-65)).
type TemperatureFit struct {
	Coeff float64 // per degree Celsius
	// Samples records the measurement ladder for reporting.
	TemperaturesC []float64
	PowerW        []float64
}

// FitTemperature measures one full-chip workload at a ladder of die
// temperatures (same kernel, same clock, so only leakage varies) and
// solves for the exponential coefficient in closed form: with equally
// spaced temperatures T0, T0+d, T0+2d,
//
//	(P2 - P1) / (P1 - P0) = exp(Coeff * d).
func (tb *Testbench) FitTemperature() (*TemperatureFit, error) {
	b := ubench.OccupancyBench(tb.Arch, tb.Scale, tb.Arch.NumSMs)
	w := FromBench(b)
	kt, err := tb.Trace(w, isa.SASS)
	if err != nil {
		return nil, err
	}

	const step = 15.0
	temps := []float64{65, 65 + step, 65 + 2*step}
	powers := make([]float64, len(temps))
	tb.Meter.ResetClock()
	for i, tc := range temps {
		tb.Meter.SetTemperature(tc)
		m, _, err := tb.measurePoint(kt)
		if err != nil {
			tb.Meter.SetTemperature(65)
			if tb.Policy.hardened {
				// A dead temperature ladder should not sink the whole
				// tuning run: temperature scaling is a refinement on
				// top of the 65C calibration point, and Coeff=0
				// degrades gracefully to "no temperature correction".
				tb.quarantine("temperature-ladder",
					fmt.Sprintf("measurement at %.0fC failed: %v", tc, err), qcTemperature)
				return &TemperatureFit{Coeff: 0, TemperaturesC: temps, PowerW: powers}, nil
			}
			return nil, err
		}
		powers[i] = m.AvgPowerW
	}
	tb.Meter.SetTemperature(65)

	d01 := powers[1] - powers[0]
	d12 := powers[2] - powers[1]
	if d01 <= 0 || d12 <= 0 {
		if tb.Policy.hardened {
			tb.quarantine("temperature-ladder",
				fmt.Sprintf("power did not grow with temperature (%.2f, %.2f, %.2f W)",
					powers[0], powers[1], powers[2]), qcTemperature)
			return &TemperatureFit{Coeff: 0, TemperaturesC: temps, PowerW: powers}, nil
		}
		return nil, fmt.Errorf("tune: power did not grow with temperature (%.2f, %.2f, %.2f W)",
			powers[0], powers[1], powers[2])
	}
	coeff := math.Log(d12/d01) / step
	if !stats.AllFinite(coeff) || coeff <= 0 || coeff > 0.1 {
		if tb.Policy.hardened {
			tb.quarantine("temperature-ladder",
				fmt.Sprintf("implausible temperature coefficient %.4f/C", coeff), qcTemperature)
			return &TemperatureFit{Coeff: 0, TemperaturesC: temps, PowerW: powers}, nil
		}
		return nil, fmt.Errorf("tune: implausible temperature coefficient %.4f/C", coeff)
	}
	return &TemperatureFit{Coeff: coeff, TemperaturesC: temps, PowerW: powers}, nil
}
