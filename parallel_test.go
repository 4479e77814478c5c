package accelwattch

import (
	"math"
	"slices"
	"testing"
)

// tinyScale keeps the determinism suite fast enough to run at two worker
// counts, twice (clean and chaos meters), under the race detector.
var parallelScale = Scale{Iters: 2, Unroll: 1, WarpsPerCTA: 2}

func tuneAt(t *testing.T, workers int, faults *FaultProfile) (*Session, map[Variant]*ValidationResult) {
	t.Helper()
	sess, err := NewSessionWithOptions(Volta(), parallelScale,
		SessionOptions{Workers: workers, Faults: faults})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	all, err := sess.ValidateAll()
	if err != nil {
		t.Fatalf("workers=%d: validate: %v", workers, err)
	}
	return sess, all
}

// expectIdentical compares two tuning+validation outcomes coefficient for
// coefficient and kernel for kernel. Comparisons are exact (==): the engine
// contract is bit-identical output at every worker count, not merely close.
func expectIdentical(t *testing.T, seq, par *Session, seqV, parV map[Variant]*ValidationResult) {
	t.Helper()
	a, b := seq.Tuned(), par.Tuned()
	if a.ConstPower.ConstW != b.ConstPower.ConstW {
		t.Errorf("ConstW: %v vs %v", a.ConstPower.ConstW, b.ConstPower.ConstW)
	}
	if a.ConstPower.LegacyConstW != b.ConstPower.LegacyConstW {
		t.Errorf("LegacyConstW: %v vs %v", a.ConstPower.LegacyConstW, b.ConstPower.LegacyConstW)
	}
	if a.IdleSM.PerIdleSMW != b.IdleSM.PerIdleSMW {
		t.Errorf("PerIdleSMW: %v vs %v", a.IdleSM.PerIdleSMW, b.IdleSM.PerIdleSMW)
	}
	if a.Temperature.Coeff != b.Temperature.Coeff {
		t.Errorf("temperature coeff: %v vs %v", a.Temperature.Coeff, b.Temperature.Coeff)
	}
	if len(a.DivFits) != len(b.DivFits) {
		t.Fatalf("DivFits length: %d vs %d", len(a.DivFits), len(b.DivFits))
	}
	for i := range a.DivFits {
		if a.DivFits[i].Model != b.DivFits[i].Model || a.DivFits[i].HalfWarp != b.DivFits[i].HalfWarp {
			t.Errorf("DivFits[%d]: %+v vs %+v", i, a.DivFits[i], b.DivFits[i])
		}
	}
	for _, v := range []Variant{SASSSIM, PTXSIM, HW, HYBRID} {
		if a.BestFits[v].Start != b.BestFits[v].Start || a.BestFits[v].TrainMAPE != b.BestFits[v].TrainMAPE {
			t.Errorf("%v best fit: %+v vs %+v", v, a.BestFits[v], b.BestFits[v])
		}
		if a.Models[v].Scale != b.Models[v].Scale {
			t.Errorf("%v scale vectors differ:\n  seq %v\n  par %v", v, a.Models[v].Scale, b.Models[v].Scale)
		}
	}
	if len(a.Quarantined) != len(b.Quarantined) {
		t.Fatalf("quarantine lists differ in length:\n  seq %v\n  par %v", a.Quarantined, b.Quarantined)
	}
	for i := range a.Quarantined {
		if a.Quarantined[i] != b.Quarantined[i] {
			t.Errorf("quarantine[%d]: %q vs %q", i, a.Quarantined[i], b.Quarantined[i])
		}
	}

	for _, v := range []Variant{SASSSIM, PTXSIM, HW, HYBRID} {
		rs, rp := seqV[v], parV[v]
		if rs.MAPE != rp.MAPE || rs.MaxAPE != rp.MaxAPE || rs.Pearson != rp.Pearson {
			t.Errorf("%v aggregates: MAPE %v/%v MaxAPE %v/%v r %v/%v",
				v, rs.MAPE, rp.MAPE, rs.MaxAPE, rp.MaxAPE, rs.Pearson, rp.Pearson)
		}
		if len(rs.Kernels) != len(rp.Kernels) {
			t.Fatalf("%v kernel counts: %d vs %d", v, len(rs.Kernels), len(rp.Kernels))
		}
		for i := range rs.Kernels {
			ks, kp := rs.Kernels[i], rp.Kernels[i]
			if ks.Name != kp.Name || ks.MeasuredW != kp.MeasuredW || ks.EstimatedW != kp.EstimatedW {
				t.Errorf("%v kernel %d: %s %v/%v W vs %s %v/%v W",
					v, i, ks.Name, ks.MeasuredW, ks.EstimatedW, kp.Name, kp.MeasuredW, kp.EstimatedW)
			}
			// The attribution must match component for component, not just in
			// total: a parallelism bug that shuffled watts between components
			// while preserving the sum would still be a broken model.
			if ks.Breakdown != kp.Breakdown {
				t.Errorf("%v kernel %s: breakdowns differ:\n  seq %v\n  par %v",
					v, ks.Name, ks.Breakdown.Watts, kp.Breakdown.Watts)
			}
		}
	}
}

// TestParallelTuneBitIdenticalClean: the full tune + four-variant validation
// at workers=8 must equal workers=1 exactly on a clean meter.
func TestParallelTuneBitIdenticalClean(t *testing.T) {
	if testing.Short() {
		t.Skip("two full tunes")
	}
	seq, seqV := tuneAt(t, 1, nil)
	par, parV := tuneAt(t, 8, nil)
	expectIdentical(t, seq, par, seqV, parV)
	if seq.Workers() != 1 || par.Workers() != 8 {
		t.Errorf("worker counts: %d and %d", seq.Workers(), par.Workers())
	}
}

// TestParallelTuneBitIdenticalChaos repeats the bit-identity assertion with
// the harshest canned fault profile active: per-point fault RNG makes the
// injected fault sequence a function of (seed, operating point, attempt),
// never of goroutine scheduling.
func TestParallelTuneBitIdenticalChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("two full tunes through a faulty meter")
	}
	profSeq, err := NamedFaultProfile("chaos", 99)
	if err != nil {
		t.Fatal(err)
	}
	profPar := profSeq
	seq, seqV := tuneAt(t, 1, &profSeq)
	par, parV := tuneAt(t, 8, &profPar)
	expectIdentical(t, seq, par, seqV, parV)

	// The meters must also have injected the identical fault load: stats
	// aggregate across replicas through the shared fault state.
	ss, ok1 := seq.FaultStats()
	ps, ok2 := par.FaultStats()
	if !ok1 || !ok2 {
		t.Fatal("fault-injected sessions must report fault stats")
	}
	if ss != ps {
		t.Errorf("fault stats diverged:\n  seq %+v\n  par %+v", ss, ps)
	}

	// Both counts must also reproduce the checked-in outcome, so a change
	// that moved the chaos path identically at every worker count fails.
	if ss != chaosFaultStats {
		t.Errorf("fault stats:\n got %+v\nwant %+v", ss, chaosFaultStats)
	}
	if q := seq.Quarantined(); !slices.Equal(q, chaosQuarantined) {
		t.Errorf("quarantine report:\n got %q\nwant %q", q, chaosQuarantined)
	}
}

// chaosFaultStats and chaosQuarantined are the fault load and quarantine
// report of the chaos-profile (seed 99) tune and validation above: the
// hardened policy absorbs every injected fault, so nothing is quarantined.
var (
	chaosFaultStats = FaultStats{Reads: 1805, TransientErrors: 58, StuckReads: 11,
		Spikes: 441, DroppedSamples: 4275}
	chaosQuarantined = []string{}
)

// TestParallelValidationFinite guards the satellite NaN contract end to end:
// no validation aggregate may come back ±Inf even at high parallelism.
func TestParallelValidationFinite(t *testing.T) {
	if testing.Short() {
		t.Skip("full tune")
	}
	_, all := tuneAt(t, 8, nil)
	for v, r := range all {
		if math.IsInf(r.MAPE, 0) || math.IsInf(r.MaxAPE, 0) {
			t.Errorf("%v: infinite aggregate (MAPE %v, MaxAPE %v)", v, r.MAPE, r.MaxAPE)
		}
		for _, k := range r.Kernels {
			if math.IsInf(k.RelErrPct(), 0) {
				t.Errorf("%v/%s: RelErrPct is infinite", v, k.Name)
			}
		}
	}
}
