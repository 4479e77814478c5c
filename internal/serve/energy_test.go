package serve

import (
	"bytes"
	"math"
	"net/http"
	"strings"
	"testing"

	"accelwattch/internal/attr"
	"accelwattch/internal/core"
	"accelwattch/internal/obs"
)

// promDump scrapes the default registry (serve metrics are package-level)
// into exposition text.
func promDump(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	if err := obs.Default().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// Served estimate traffic is charged to the serving model's tenant series,
// split into active/idle power domains, and mirrored onto the ledger event
// — the gateway half of the chargeback pipeline. Cache hits are charged
// too: a replayed response still represents a served execution window.
func TestEstimateEnergyAttribution(t *testing.T) {
	led := obs.NewLedger("energy-test")
	obs.SetLedger(led)
	t.Cleanup(func() { obs.SetLedger(nil) })

	_, ts := newZooServer(t, Config{})
	baseA, baseI := joulesFor(t, "volta-base") // counters are cumulative package globals
	const posts = 6
	for i := 0; i < posts; i++ {
		if code, b := post(t, ts, "/estimate", routedBody(100+i, ``)); code != http.StatusOK {
			t.Fatalf("estimate %d: %d %s", i, code, b)
		}
	}
	// Same body again: a cache hit, still one execution window of energy.
	if code, _ := post(t, ts, "/estimate", routedBody(100, ``)); code != http.StatusOK {
		t.Fatal("cache-hit replay failed")
	}

	var events []obs.Event
	for _, ev := range led.Events() {
		if ev.Stage == "serve/estimate" && ev.Tenant == "volta-base" {
			events = append(events, ev)
		}
	}
	if len(events) != posts+1 {
		t.Fatalf("got %d charged estimate events, want %d (cache hit included)", len(events), posts+1)
	}
	var wantA, wantI float64
	for i, ev := range events {
		if ev.Ticks != 1 {
			t.Fatalf("event %d: ticks %d, want 1 (one request = one window)", i, ev.Ticks)
		}
		if !(ev.JoulesActive > 0) || !(ev.JoulesIdle > 0) {
			t.Fatalf("event %d: non-positive domain joules %g/%g", i, ev.JoulesActive, ev.JoulesIdle)
		}
		if math.Float64bits(ev.JoulesTotal) != math.Float64bits(ev.JoulesActive+ev.JoulesIdle) {
			t.Fatalf("event %d: joules_total not bit-exactly active+idle", i)
		}
		// The window is Cycles at the arch base clock (the body names no
		// clock), so total joules must equal the split watts times that dt
		// — the charge is a pure function of the request and the model.
		bd, err := core.BreakdownFromMap(ev.Breakdown)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		s := attr.Split(&bd)
		dtS := 1e6 / (testModel().Arch.BaseClockMHz * 1e6)
		if rel := math.Abs(ev.JoulesTotal-s.TotalW()*dtS) / ev.JoulesTotal; rel > 1e-12 {
			t.Fatalf("event %d: joules %g vs split*dt %g", i, ev.JoulesTotal, s.TotalW()*dtS)
		}
		wantA += ev.JoulesActive
		wantI += ev.JoulesIdle
	}

	exp := promDump(t)
	for _, want := range []string{
		`aw_tenant_joules_total{tenant="volta-base",domain="active"}`,
		`aw_tenant_joules_total{tenant="volta-base",domain="idle"}`,
		`aw_tenant_watts{tenant="volta-base"}`,
	} {
		if !strings.Contains(exp, want) {
			t.Fatalf("exposition missing %s\n%s", want, exp)
		}
	}
	// The counter growth equals the event sums: meter and ledger agree.
	endA, endI := joulesFor(t, "volta-base")
	gotA, gotI := endA-baseA, endI-baseI
	const tol = 1e-9
	if math.Abs(gotA-wantA) > tol*wantA || math.Abs(gotI-wantI) > tol*wantI {
		t.Fatalf("meter delta (%g, %g) disagrees with ledger sums (%g, %g)", gotA, gotI, wantA, wantI)
	}
}

// joulesFor reads the tenant's per-domain joules counters off the default
// registry (0 when the series does not exist yet).
func joulesFor(t *testing.T, tenant string) (activeJ, idleJ float64) {
	t.Helper()
	for _, fam := range obs.Default().TakeSnapshot().Metrics {
		if fam.Name != "aw_tenant_joules_total" {
			continue
		}
		for _, s := range fam.Series {
			if s.Labels["tenant"] != tenant || s.Value == nil {
				continue
			}
			switch s.Labels["domain"] {
			case attr.DomainActive:
				activeJ = *s.Value
			case attr.DomainIdle:
				idleJ = *s.Value
			}
		}
	}
	return activeJ, idleJ
}

// Retiring a model garbage-collects its tenant energy series along with the
// other per-model label values — the cardinality contract.
func TestRetirePrunesEnergySeries(t *testing.T) {
	s, ts := newZooServer(t, Config{})
	body := routedBody(7, `"model":"turing-derived",`)
	if code, b := post(t, ts, "/estimate", body); code != http.StatusOK {
		t.Fatalf("estimate: %d %s", code, b)
	}
	if !strings.Contains(promDump(t), `aw_tenant_joules_total{tenant="turing-derived"`) {
		t.Fatal("tenant series missing before retirement")
	}
	if err := s.Retire("turing-derived"); err != nil {
		t.Fatal(err)
	}
	if exp := promDump(t); strings.Contains(exp, `tenant="turing-derived"`) {
		t.Fatal("retired model's tenant series survived exposition")
	}
}

// Sweeps carry no breakdown and must not be charged.
func TestSweepNotCharged(t *testing.T) {
	led := obs.NewLedger("sweep-test")
	obs.SetLedger(led)
	t.Cleanup(func() { obs.SetLedger(nil) })

	_, ts := newTestServer(t, Config{})
	if code, b := post(t, ts, "/sweep", sweepBody(3)); code != http.StatusOK {
		t.Fatalf("sweep: %d %s", code, b)
	}
	for _, ev := range led.Events() {
		if ev.JoulesTotal != 0 || ev.Tenant != "" {
			t.Fatalf("sweep charged energy: %+v", ev)
		}
	}
}

// estimateResult responses must stay byte-identical with attribution wired
// in — accounting is a side effect, never a response mutation.
func TestAttributionDoesNotChangeResponses(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := estBody(41)
	want, err := EstimateOnce(testModel(), body)
	if err != nil {
		t.Fatal(err)
	}
	if _, got := post(t, ts, "/estimate", body); !bytes.Equal(got, want) {
		t.Fatalf("served bytes differ from single-shot:\n got %s\nwant %s", got, want)
	}
}
