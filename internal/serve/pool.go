package serve

import (
	"bytes"
	"sync"

	"accelwattch/internal/attr"
	"accelwattch/internal/core"
	"accelwattch/internal/eval"
	"accelwattch/internal/tune"
)

// scratch is the reusable per-computation buffer set of the hot paths:
// the sweep's clock ladder and the per-rung totals the model's ladder path
// writes into, and the buffer a response is encoded into. Buffers reset
// (reslice to zero) rather than reallocate, so a warm server encodes
// replies and computes sweeps of any previously-seen size without growing
// the heap. The result keeps an exact-size copy of the body, which is what
// makes returning the scratch to the pool safe.
type scratch struct {
	clocks []float64
	totals []float64
	body   []byte
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// computeEstimate is estimateResult with the hand-written encoder: the same
// EstimateOne call, and the encoder writes the bytes json.Marshal writes
// for the same response — so the body is provably equal to the reference
// path's, which the golden and determinism suites assert end to end. The
// breakdown map and its power-domain split are built once per miss: the
// ledger event and the energy charge of this request and of every later hit
// reuse them.
func computeEstimate(m *core.Model, req *EstimateRequest) (result, error) {
	a, err := req.Activity()
	if err != nil {
		return result{}, err
	}
	kr, err := eval.EstimateOne(m, req.Name, 0, a)
	if err != nil {
		return result{}, err
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.body, err = appendEstimateResponse(sc.body[:0], req.Variant, kr.EstimatedW, &kr.Breakdown)
	if err != nil {
		return result{}, err
	}
	return result{
		body:      bytes.Clone(sc.body),
		powerW:    kr.EstimatedW,
		breakdown: kr.Breakdown.Map(),
		split:     attr.Split(&kr.Breakdown),
	}, nil
}

// computeSweep is sweepResult through Model.SweepLadderInto: the ladder,
// rung totals, and response body all live in pooled buffers, and the whole
// DVFS curve is evaluated in one pass with the clock-invariant work hoisted
// out of the rung loop. Each rung's power is bit-identical to the reference
// path's per-rung EstimateOne total, so the encoded bytes match sweepResult
// exactly.
func computeSweep(m *core.Model, req *SweepRequest) (result, error) {
	a, err := req.Activity()
	if err != nil {
		return result{}, err
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	fs := tune.FreqSweep{MinMHz: req.MinMHz, MaxMHz: req.MaxMHz, StepMHz: req.StepMHz}
	sc.clocks = fs.AppendPoints(sc.clocks[:0])
	if cap(sc.totals) < len(sc.clocks) {
		sc.totals = make([]float64, len(sc.clocks))
	} else {
		sc.totals = sc.totals[:len(sc.clocks)]
	}
	if err := m.SweepLadderInto(&a, sc.clocks, sc.totals); err != nil {
		return result{}, err
	}
	sc.body, err = appendSweepResponse(sc.body[:0], req.Variant, sc.clocks, sc.totals)
	if err != nil {
		return result{}, err
	}
	return result{body: bytes.Clone(sc.body)}, nil
}
