package serve

import (
	"sort"
	"strconv"

	"accelwattch/internal/core"
)

// Cache keys are the canonical text form of a request: every field that can
// influence the response body, in a fixed order, with floats rendered in
// exact hexadecimal ('x') form so two requests collide if and only if they
// are the same computation. The full canonical string — not a hash of it —
// is the key, so a collision serving the wrong cached body is impossible by
// construction. Fields that cannot influence the body (the ledger label
// Name) are excluded; zero counts are dropped, making {"alu": 0} and an
// absent "alu" the same key, exactly as they are the same estimate.

// CacheKey returns the canonical cache key of a validated estimate request.
// Call only after DecodeEstimateRequest (or validate): unknown names have
// already been rejected, so the key is total on the valid-request domain.
func (r *EstimateRequest) CacheKey() string {
	return string(r.appendKey(make([]byte, 0, 256)))
}

// CacheKey returns the canonical cache key of a validated sweep request:
// the estimate key of its activity plus the ladder bounds.
func (r *SweepRequest) CacheKey() string {
	b := append(make([]byte, 0, 256), "swp|"...)
	b = r.EstimateRequest.appendKey(b)
	b = appendCanon(append(b, "|lo="...), r.MinMHz)
	b = appendCanon(append(b, "|hi="...), r.MaxMHz)
	b = appendCanon(append(b, "|st="...), r.StepMHz)
	return string(b)
}

// appendCanon renders a float64 exactly and canonically.
func appendCanon(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'x', -1, 64)
}

// appendKey appends the estimate key of r.
func (r *EstimateRequest) appendKey(b []byte) []byte {
	b = append(b, "est|v="...)
	b = append(b, r.Variant...)
	b = append(b, "|mix="...)
	b = append(b, r.Mix...)
	b = appendCanon(append(b, "|cy="...), r.Cycles)
	b = appendCanon(append(b, "|f="...), r.ClockMHz)
	b = appendCanon(append(b, "|V="...), r.Voltage)
	b = appendCanon(append(b, "|sm="...), r.ActiveSMs)
	b = appendCanon(append(b, "|y="...), r.AvgLanes)
	b = appendCanon(append(b, "|T="...), r.TemperatureC)
	// Counts in component-index order (deterministic regardless of the map
	// iteration order), zero entries omitted. Unknown names cannot reach a
	// validated request; if one does (direct construction), it is keyed
	// verbatim under its own name so it can never alias a known component.
	var counts [core.NumDynComponents]float64
	var unknown []string
	for name, v := range r.Counts {
		if v == 0 {
			continue
		}
		if c, ok := core.ComponentByName(name); ok && int(c) < core.NumDynComponents {
			counts[c] = v
		} else {
			unknown = append(unknown, name)
		}
	}
	b = append(b, "|c:"...)
	for c, v := range counts {
		if v != 0 {
			b = append(b, core.Component(c).String()...)
			b = appendCanon(append(b, '='), v)
			b = append(b, ',')
		}
	}
	sort.Strings(unknown)
	for _, name := range unknown {
		b = append(append(b, '?'), name...)
		b = appendCanon(append(b, '='), r.Counts[name])
		b = append(b, ',')
	}
	return b
}
