package accelwattch

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"accelwattch/internal/core"
	"accelwattch/internal/obs"
)

// TestBreakdownSumsToTotal is the attribution invariant, end to end: for
// every validated kernel, in every variant, the per-component breakdown
// sums bit-identically (==, no tolerance) to the reported estimated power.
// The matrix covers both worker counts and both obs states because those
// are exactly the axes that could plausibly perturb a float sum — a
// reduction reordered by parallelism, or an instrumentation path that
// recomputed instead of reusing the model's numbers.
func TestBreakdownSumsToTotal(t *testing.T) {
	if testing.Short() {
		t.Skip("four full tunes")
	}
	for _, tc := range []struct {
		workers int
		obsOn   bool
	}{
		{1, true}, {8, true}, {1, false}, {8, false},
	} {
		obs.SetEnabled(tc.obsOn)
		_, all := tuneAt(t, tc.workers, nil)
		obs.SetEnabled(true)

		for _, v := range []Variant{SASSSIM, PTXSIM, HW, HYBRID} {
			r := all[v]
			if len(r.Kernels) == 0 {
				t.Fatalf("workers=%d obs=%v %v: no kernels validated", tc.workers, tc.obsOn, v)
			}
			for _, k := range r.Kernels {
				if got := k.Breakdown.Total(); got != k.EstimatedW {
					t.Errorf("workers=%d obs=%v %v/%s: components sum to %v W, reported %v W",
						tc.workers, tc.obsOn, v, k.Name, got, k.EstimatedW)
				}
				// The ledger wire form must round-trip to the same array —
				// this is what lets awreport re-verify the invariant after a
				// JSONL decode.
				rt, err := core.BreakdownFromMap(k.Breakdown.Map())
				if err != nil {
					t.Fatalf("%v/%s: %v", v, k.Name, err)
				}
				if rt != k.Breakdown {
					t.Errorf("workers=%d obs=%v %v/%s: Map round trip altered the breakdown",
						tc.workers, tc.obsOn, v, k.Name)
				}
			}
		}
	}
}

// ledgerAt installs a fresh flight recorder, runs a full tune + validation
// at the given worker count, and returns the recorded events.
func ledgerAt(t *testing.T, workers int, faults *FaultProfile) []obs.Event {
	t.Helper()
	led := obs.NewLedger("determinism-test")
	obs.SetLedger(led)
	defer obs.SetLedger(nil)
	tuneAt(t, workers, faults)
	return led.Events()
}

// canonicalEvents normalises away the fields that describe one particular
// run's interleaving — Seq, timestamps, the run ID — and returns the events
// as sorted JSON lines. Two runs with the same canonical form recorded the
// same event set.
func canonicalEvents(t *testing.T, evs []obs.Event) []string {
	t.Helper()
	lines := make([]string, len(evs))
	for i, ev := range evs {
		ev.Seq, ev.TimeUnixNano, ev.RunID = 0, 0, ""
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = string(b)
	}
	sort.Strings(lines)
	return lines
}

// chaosLedgerDigest is the SHA-256 of the canonical event set (sorted
// lines joined by newlines) of the chaos-profile (seed 99) tune and
// validation in TestLedgerEventSetDeterministic.
const chaosLedgerDigest = "7439962b515ce91344166a2854a7c37acdb9b5f1bc9ca31d9cf56081f5a77311"

// TestLedgerEventSetDeterministic extends the bit-identical parallelism
// contract to the flight recorder: the *set* of ledger events from a tune +
// four-variant validation at workers=8 must equal workers=1 exactly, even
// through the harshest fault profile. Only Seq/timestamps/run ID — the
// interleaving record — may differ. Runs under chaos faults so the
// measure_err and quarantine vocabularies are exercised, not just the happy
// path.
func TestLedgerEventSetDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full tunes through a faulty meter")
	}
	profSeq, err := NamedFaultProfile("chaos", 99)
	if err != nil {
		t.Fatal(err)
	}
	profPar := profSeq
	seq := canonicalEvents(t, ledgerAt(t, 1, &profSeq))
	par := canonicalEvents(t, ledgerAt(t, 8, &profPar))

	if len(seq) != len(par) {
		t.Fatalf("event counts differ: %d sequential vs %d parallel", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("event sets diverge at %d:\n  seq %s\n  par %s", i, seq[i], par[i])
		}
	}
	// The event set must also reproduce the checked-in digest, so a change
	// that moved the chaos path identically at both worker counts fails.
	sum := sha256.Sum256([]byte(strings.Join(seq, "\n")))
	if got := hex.EncodeToString(sum[:]); got != chaosLedgerDigest {
		t.Errorf("canonical event set of %d events: digest %s, want %s", len(seq), got, chaosLedgerDigest)
	}

	// The run must have exercised the full event vocabulary this pipeline
	// can produce (run_start/run_end come from the CLI layer, not here).
	kinds := make(map[string]int)
	for _, line := range seq {
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		kinds[ev.Kind]++
	}
	for _, kind := range []string{obs.KindMeasure, obs.KindFit, obs.KindBreakdown} {
		if kinds[kind] == 0 {
			t.Errorf("no %s events recorded (kinds seen: %v)", kind, kinds)
		}
	}
}
