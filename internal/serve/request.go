// Package serve is the online power-estimation service behind cmd/awserve:
// a long-running HTTP front end over a tuned AccelWattch model set. Where
// the batch CLIs (awvalidate, awsweep) tune and evaluate in one shot, this
// package loads the tuned models once and answers estimation requests for
// the lifetime of the process — the operating mode AI-workload consumers of
// GPU power models actually deploy.
//
// The serving layer is strictly a transport around the single-shot
// evaluation path: every /estimate response is produced by
// eval.EstimateOne on the same model the batch tools would use, encoded
// once, and possibly replayed from cache — so a response body is
// bit-identical to the batch answer at any worker count, with the cache on
// or off. The determinism suite (determinism_test.go) enforces exactly
// that.
package serve

import (
	"fmt"
	"math"

	"accelwattch/internal/core"
	"accelwattch/internal/tune"
)

// EstimateRequest is the POST /estimate body: one kernel's activity vector
// (the counters of Eq. 12) plus the model variant to drive. Counts are
// keyed by the stable component names of Table 1 ("alu", "dram_mc", ...);
// zero-valued counts are equivalent to absent ones. The zero DVFS point
// (clock_mhz/voltage omitted) means the architecture's base clock, exactly
// as in core.Activity.
type EstimateRequest struct {
	// Name labels the kernel in the attribution ledger; it does not affect
	// the computation or the response body.
	Name string `json:"name,omitempty"`

	// Model routes the request to a named zoo entry ("volta-tuned",
	// "pascal-derived", ...); empty selects the gateway's default entry.
	// Routing fields select which model answers — they are not part of the
	// activity vector, and they never appear in the response body, so a
	// routed response is byte-identical to the single-shot evaluation
	// against that entry's model.
	Model string `json:"model,omitempty"`

	// Arch routes by architecture instead of entry name: a family alias
	// ("pascal") or full config name ("pascal-titanx"). It must resolve to
	// exactly one live entry — ambiguity is a 400 naming the candidates.
	// With Model set, Arch is a cross-check against the entry's target.
	Arch string `json:"arch,omitempty"`

	Variant string `json:"variant"`

	Counts       map[string]float64 `json:"counts,omitempty"`
	Cycles       float64            `json:"cycles"`
	ClockMHz     float64            `json:"clock_mhz,omitempty"`
	Voltage      float64            `json:"voltage,omitempty"`
	ActiveSMs    float64            `json:"active_sms,omitempty"`
	AvgLanes     float64            `json:"avg_lanes,omitempty"`
	Mix          string             `json:"mix,omitempty"`
	TemperatureC float64            `json:"temperature_c,omitempty"`
}

// EstimateResponse is the /estimate reply. Breakdown carries all 25
// components by name and sums bit-identically to PowerW — the same
// attribution invariant the ledger and awreport enforce.
type EstimateResponse struct {
	Variant   string             `json:"variant"`
	PowerW    float64            `json:"power_w"`
	Breakdown map[string]float64 `json:"breakdown"`
}

// SweepRequest is the POST /sweep body: the same activity vector swept
// across a frequency ladder, producing the DVFS curve of Figure 2 for a
// user kernel instead of a microbenchmark.
type SweepRequest struct {
	EstimateRequest
	MinMHz  float64 `json:"min_mhz"`
	MaxMHz  float64 `json:"max_mhz"`
	StepMHz float64 `json:"step_mhz"`
}

// SweepPoint is one operating point of a sweep reply.
type SweepPoint struct {
	ClockMHz float64 `json:"clock_mhz"`
	PowerW   float64 `json:"power_w"`
}

// SweepResponse is the /sweep reply, points in ascending frequency order.
type SweepResponse struct {
	Variant string       `json:"variant"`
	Points  []SweepPoint `json:"points"`
}

// maxSweepPoints bounds the ladder a single request may demand, so a tiny
// step over a wide range cannot turn one request into unbounded work.
const maxSweepPoints = 512

// parseMix resolves a mix category's wire name; the empty string selects
// LIGHT (no compute census supplied).
func parseMix(name string) (core.MixCategory, error) {
	if name == "" {
		return core.MixLight, nil
	}
	for m := core.MixCategory(0); m < core.NumMixCategories; m++ {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("serve: unknown mix category %q", name)
}

// DecodeEstimateRequest parses and validates a /estimate body. On success
// the request is fully resolved: the variant and mix names are known, every
// counter names a dynamic component, and the activity vector passes
// core.Activity.Validate — so the compute stage downstream cannot fail on
// input. An unknown field or anything but white space after the body
// rejects it: a mistyped counter name must be a 400, not a silently
// ignored field.
func DecodeEstimateRequest(data []byte) (*EstimateRequest, error) {
	var req EstimateRequest
	if err := decodeRequest(data, &req, nil); err != nil {
		return nil, err
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// DecodeSweepRequest parses and validates a /sweep body.
func DecodeSweepRequest(data []byte) (*SweepRequest, error) {
	var req SweepRequest
	if err := decodeRequest(data, &req.EstimateRequest, &req); err != nil {
		return nil, err
	}
	if err := req.EstimateRequest.validate(); err != nil {
		return nil, err
	}
	if err := req.validateLadder(); err != nil {
		return nil, err
	}
	return &req, nil
}

func (r *EstimateRequest) validate() error {
	if _, ok := tune.ParseVariant(r.Variant); !ok {
		return fmt.Errorf("serve: unknown variant %q", r.Variant)
	}
	a, err := r.Activity()
	if err != nil {
		return err
	}
	for _, f := range []float64{r.Cycles, r.ClockMHz, r.Voltage, r.ActiveSMs, r.AvgLanes, r.TemperatureC} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("serve: non-finite field in request")
		}
	}
	if r.ClockMHz < 0 || r.Voltage < 0 {
		return fmt.Errorf("serve: negative DVFS point (clock %g MHz, %g V)", r.ClockMHz, r.Voltage)
	}
	return a.Validate()
}

func (r *SweepRequest) validateLadder() error {
	if !(r.StepMHz > 0) || math.IsInf(r.StepMHz, 0) ||
		math.IsNaN(r.MinMHz) || math.IsInf(r.MinMHz, 0) ||
		math.IsNaN(r.MaxMHz) || math.IsInf(r.MaxMHz, 0) {
		return fmt.Errorf("serve: sweep ladder must be finite with a positive step")
	}
	if !(r.MinMHz > 0) || r.MaxMHz < r.MinMHz {
		return fmt.Errorf("serve: sweep range [%g, %g] MHz is empty or non-positive", r.MinMHz, r.MaxMHz)
	}
	// A step below one ULP of an endpoint collapses adjacent rungs into
	// duplicates (min+step rounds back to min), so the ladder is degenerate
	// even when the point count below is within bounds.
	if r.MinMHz+r.StepMHz == r.MinMHz || r.MaxMHz+r.StepMHz == r.MaxMHz {
		return fmt.Errorf("serve: step %g MHz is below the float resolution of the range [%g, %g] MHz",
			r.StepMHz, r.MinMHz, r.MaxMHz)
	}
	if n := (r.MaxMHz - r.MinMHz) / r.StepMHz; n > maxSweepPoints {
		return fmt.Errorf("serve: sweep would evaluate %.0f points, limit is %d", math.Floor(n)+1, maxSweepPoints)
	}
	return nil
}

// Activity converts the request counters into the model's activity vector.
// Counter names must be dynamic components: the three pseudo-components
// (static, idle_sm, const) are model outputs, not inputs, and naming one is
// an error rather than a silent drop.
func (r *EstimateRequest) Activity() (core.Activity, error) {
	a := core.Activity{
		Cycles:       r.Cycles,
		ClockMHz:     r.ClockMHz,
		Voltage:      r.Voltage,
		ActiveSMs:    r.ActiveSMs,
		AvgLanes:     r.AvgLanes,
		TemperatureC: r.TemperatureC,
	}
	mix, err := parseMix(r.Mix)
	if err != nil {
		return a, err
	}
	a.Mix = mix
	for name, v := range r.Counts {
		c, ok := core.ComponentByName(name)
		if !ok {
			return a, fmt.Errorf("serve: unknown component %q in counts", name)
		}
		if int(c) >= core.NumDynComponents {
			return a, fmt.Errorf("serve: component %q is a model output, not a counter", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return a, fmt.Errorf("serve: non-finite count for %q", name)
		}
		a.Counts[c] = v
	}
	return a, nil
}

// Ladder lists the sweep frequencies, reusing the tuning pipeline's
// FreqSweep so served curves step exactly like the Section 4.2 ladder.
func (r *SweepRequest) Ladder() []float64 {
	fs := tune.FreqSweep{MinMHz: r.MinMHz, MaxMHz: r.MaxMHz, StepMHz: r.StepMHz}
	return fs.Points()
}
