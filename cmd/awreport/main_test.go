package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"accelwattch/internal/attr"
	"accelwattch/internal/config"
	"accelwattch/internal/core"
	"accelwattch/internal/obs"
)

// testBreakdown builds a breakdown whose components sum (in index order) to
// a deterministic total, mirroring how the pipeline emits events.
func testBreakdown(scale float64) core.Breakdown {
	var bd core.Breakdown
	for i := 0; i < core.NumComponents; i++ {
		bd.Watts[i] = scale * float64(i+1)
	}
	return bd
}

// writeLedger emits the given events through a real Ledger and writes the
// JSONL artifact, so the test ingests exactly the wire format the pipeline
// produces.
func writeLedger(t *testing.T, events ...obs.Event) string {
	t.Helper()
	led := obs.NewLedger("report-test")
	for _, ev := range events {
		led.Emit(ev)
	}
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	if err := led.WriteFile(path); err != nil {
		t.Fatalf("writing ledger: %v", err)
	}
	return path
}

func breakdownEvent(kernel, variant string, bd core.Breakdown, measured float64) obs.Event {
	return obs.Event{
		Kind: obs.KindBreakdown, Stage: "eval/validate",
		Workload: kernel, Variant: variant,
		PowerW: bd.Total(), MeasuredW: measured, Breakdown: bd.Map(),
	}
}

func TestFromLedger(t *testing.T) {
	bd1, bd2 := testBreakdown(1), testBreakdown(2)
	path := writeLedger(t,
		obs.Event{Kind: obs.KindRunStart, Stage: "awvalidate"},
		breakdownEvent("gemm", "SASS_SIM", bd1, 120),
		breakdownEvent("stream", "SASS_SIM", bd2, 200),
		breakdownEvent("gemm", "HW", bd1, 120),
		obs.Event{Kind: obs.KindMeasure, Workload: "noise", PowerW: 55},
		obs.Event{Kind: obs.KindRunEnd, Reason: "ok"},
	)
	got, err := fromLedger(path)
	if err != nil {
		t.Fatalf("fromLedger: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d tables, want 2 (SASS_SIM, HW)", len(got))
	}
	sass, hw := got[table{variant: "SASS_SIM"}], got[table{variant: "HW"}]
	if len(sass) != 2 || len(hw) != 1 {
		t.Fatalf("row counts: SASS_SIM=%d HW=%d", len(sass), len(hw))
	}
	r := sass[0]
	if r.Kernel != "gemm" || r.MeasuredW != 120 {
		t.Fatalf("first row = %+v", r)
	}
	if r.TotalW != bd1.Total() {
		t.Fatalf("TotalW %v, want %v", r.TotalW, bd1.Total())
	}
	if r.Breakdown != bd1 {
		t.Fatal("breakdown did not round-trip through the ledger")
	}
	// Non-breakdown events (run_start, measure, run_end) must be ignored,
	// not misread as attribution rows.
	total := 0
	for _, rows := range got {
		total += len(rows)
	}
	if total != 3 {
		t.Fatalf("ingested %d rows, want 3", total)
	}
}

// A default awvalidate run also validates the case studies' retargeted
// models and the GPUWattch baseline, under the same stage and variants as
// the session's own model. Their events carry the model in their detail,
// and each model's rows must land in a table of their own.
func TestFromLedgerSplitsModels(t *testing.T) {
	own, pascal := testBreakdown(1), testBreakdown(2)
	other := breakdownEvent("gemm", "SASS_SIM", pascal, 150)
	other.Detail = "pascal-titanx"
	path := writeLedger(t, breakdownEvent("gemm", "SASS_SIM", own, 120), other)
	got, err := fromLedger(path)
	if err != nil {
		t.Fatalf("fromLedger: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d tables, want one per model", len(got))
	}
	totals := map[float64]bool{}
	for tab, rows := range got {
		if len(rows) != 1 {
			t.Fatalf("table %v holds %d gemm rows, want 1", tab, len(rows))
		}
		totals[rows[0].TotalW] = true
	}
	if !totals[own.Total()] || !totals[pascal.Total()] {
		t.Fatalf("tables hold totals %v, want %v and %v", totals, own.Total(), pascal.Total())
	}
}

func TestFromLedgerRejectsBrokenSumInvariant(t *testing.T) {
	bd := testBreakdown(1)
	ev := breakdownEvent("gemm", "SASS_SIM", bd, 120)
	ev.PowerW = bd.Total() * 1.25 // components no longer sum to the total
	path := writeLedger(t, ev)
	_, err := fromLedger(path)
	if err == nil || !strings.Contains(err.Error(), "corrupted ledger") {
		t.Fatalf("fromLedger accepted a broken sum invariant: %v", err)
	}
}

func TestFromLedgerRejectsUnknownComponent(t *testing.T) {
	bd := testBreakdown(1)
	ev := breakdownEvent("gemm", "SASS_SIM", bd, 120)
	ev.Breakdown["flux_capacitor"] = 1.21
	path := writeLedger(t, ev)
	_, err := fromLedger(path)
	if err == nil || !strings.Contains(err.Error(), "unknown component") {
		t.Fatalf("fromLedger accepted an unknown component: %v", err)
	}
}

func TestFromLedgerRejectsMalformedJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "broken.jsonl")
	content := `{"seq":1,"kind":"breakdown","workload":"ok","power_w":0}
{"seq":2,"kind":"breakdown","workload":"broken"
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fromLedger(path); err == nil {
		t.Fatal("fromLedger accepted malformed JSONL")
	}
	if _, err := fromLedger(filepath.Join(t.TempDir(), "missing.jsonl")); err == nil {
		t.Fatal("fromLedger accepted a missing file")
	}
}

func TestCloseEnough(t *testing.T) {
	cases := []struct {
		a, b float64
		want bool
	}{
		{100, 100, true},
		{100, 100 + 1e-8, true}, // JSON round-trip rounding scale
		{100, 100.001, false},   // real corruption
		{0, 0, true},
		{1e-300, 1e-300, true},
		{100, -100, false},
		{0, 1, false},
	}
	for _, tc := range cases {
		if got := closeEnough(tc.a, tc.b); got != tc.want {
			t.Errorf("closeEnough(%g, %g) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestMatchHint(t *testing.T) {
	if h := matchHint(""); !strings.Contains(h, "ledger") {
		t.Errorf("empty-variant hint %q should mention the ledger", h)
	}
	if h := matchHint("HW"); !strings.Contains(h, "HW") {
		t.Errorf("variant hint %q should name the variant", h)
	}
}

func TestPrintTable(t *testing.T) {
	// printTable writes to stdout; capture it to check shape for both the
	// grouped and per-component layouts.
	capture := func(fn func()) string {
		t.Helper()
		old := os.Stdout
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		os.Stdout = w
		fn()
		w.Close()
		os.Stdout = old
		buf := make([]byte, 1<<16)
		n, _ := r.Read(buf)
		return string(buf[:n])
	}
	rows := []row{
		{Kernel: "zz_last", MeasuredW: 100, TotalW: 110, Breakdown: testBreakdown(1)},
		{Kernel: "aa_first", MeasuredW: 50, TotalW: 55, Breakdown: testBreakdown(0.5)},
	}
	out := capture(func() { printTable("SASS_SIM", rows, false) })
	if !strings.Contains(out, "SASS_SIM") || !strings.Contains(out, "aa_first") {
		t.Fatalf("grouped table missing content:\n%s", out)
	}
	if strings.Index(out, "aa_first") > strings.Index(out, "zz_last") {
		t.Fatal("rows not sorted by kernel name")
	}
	out = capture(func() { printTable("HW", rows, true) })
	if !strings.Contains(out, core.CompDRAMMC.String()) {
		t.Fatalf("per-component table missing component columns:\n%s", out)
	}
}

// TestLedgerRowsMatchModelEstimate closes the loop: a breakdown emitted
// from a real model estimate must ingest with the sum invariant intact.
func TestLedgerRowsMatchModelEstimate(t *testing.T) {
	m := &core.Model{
		Arch:         config.Volta(),
		BaseEnergyPJ: core.InitialEnergiesPJ(),
		ConstW:       32.5,
		IdleSMW:      0.1,
		RefSMs:       80,
	}
	for i := range m.Scale {
		m.Scale[i] = 0.1
	}
	for i := range m.Div {
		m.Div[i] = core.DivModel{FirstLaneW: 30, AddLaneW: 0.7}
	}
	a := core.Activity{Cycles: 1e6, ActiveSMs: 80, AvgLanes: 32, Mix: core.MixIntFP}
	a.Counts[core.CompALU] = 5e8
	a.Counts[core.CompRF] = 2e9
	bd, err := m.Estimate(a)
	if err != nil {
		t.Fatal(err)
	}
	path := writeLedger(t, obs.Event{
		Kind: obs.KindBreakdown, Workload: "real", Variant: "HW",
		PowerW: bd.Total(), Breakdown: bd.Map(),
	})
	got, err := fromLedger(path)
	if err != nil {
		t.Fatalf("fromLedger rejected a genuine model breakdown: %v", err)
	}
	if got[table{variant: "HW"}][0].TotalW != bd.Total() {
		t.Fatal("total did not survive the ledger round trip")
	}
}

func energyEvent(tenant string, ticks int64, activeJ, idleJ float64) obs.Event {
	return obs.Event{
		Kind: obs.KindEnergy, Stage: "attr", Tenant: tenant, Ticks: ticks,
		JoulesActive: activeJ, JoulesIdle: idleJ, JoulesTotal: activeJ + idleJ,
	}
}

func TestEnergyFromLedger(t *testing.T) {
	// A mixed ledger: collector windows (KindEnergy), a serve-charged
	// estimate (KindBreakdown with Tenant set), and unrelated events that
	// must be skipped.
	bd := testBreakdown(1)
	served := breakdownEvent("gemm", "SASS_SIM", bd, 120)
	served.Tenant = "model-a"
	served.Ticks = 1
	served.JoulesActive, served.JoulesIdle = 0.25, 0.05
	served.JoulesTotal = 0.25 + 0.05
	path := writeLedger(t,
		obs.Event{Kind: obs.KindRunStart, Stage: "awmeterd"},
		energyEvent("tenant-b", 100, 10, 2),
		energyEvent("tenant-a", 100, 4, 1),
		served,
		energyEvent("tenant-b", 50, 5, 1),
		breakdownEvent("stream", "HW", bd, 200), // uncharged: no tenant
		obs.Event{Kind: obs.KindRunEnd, Reason: "ok"},
	)
	rows, err := energyFromLedger(path)
	if err != nil {
		t.Fatalf("energyFromLedger: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d tenants, want 3: %+v", len(rows), rows)
	}
	// Sorted by tenant name.
	if rows[0].Tenant != "model-a" || rows[1].Tenant != "tenant-a" || rows[2].Tenant != "tenant-b" {
		t.Fatalf("tenant order: %+v", rows)
	}
	b := rows[2]
	if b.Events != 2 || b.Ticks != 150 || b.ActiveJ != 15 || b.IdleJ != 3 || b.TotalJ != 18 {
		t.Fatalf("tenant-b position: %+v", b)
	}
	if rows[0].TotalJ != 0.3 || rows[0].Ticks != 1 {
		t.Fatalf("serve-charged row: %+v", rows[0])
	}
}

func TestEnergyFromLedgerRejectsBrokenSplit(t *testing.T) {
	ev := energyEvent("tenant-x", 10, 3, 1)
	ev.JoulesTotal = 4.0000001 // not active+idle
	path := writeLedger(t, ev)
	if _, err := energyFromLedger(path); err == nil || !strings.Contains(err.Error(), "corrupted") {
		t.Fatalf("broken domain split not rejected: %v", err)
	}
}

func TestEnergyFromLedgerEmpty(t *testing.T) {
	path := writeLedger(t, obs.Event{Kind: obs.KindRunStart})
	if _, err := energyFromLedger(path); err == nil || !strings.Contains(err.Error(), "no energy attribution") {
		t.Fatalf("empty ledger not diagnosed: %v", err)
	}
}

func TestPrintChargeback(t *testing.T) {
	var sb strings.Builder
	printChargeback(&sb, []chargeRow{
		{Tenant: "a", Events: 2, Ticks: 20, ActiveJ: 30, IdleJ: 10, TotalJ: 40},
		{Tenant: "b", Events: 1, Ticks: 10, ActiveJ: 45, IdleJ: 15, TotalJ: 60},
	})
	out := sb.String()
	for _, want := range []string{"2 tenants", "active J", "60.0%", "40.0%", "TOTAL", "100"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chargeback table missing %q:\n%s", want, out)
		}
	}
}

// The chargeback loop closes end to end: a ledger produced by a real
// collector run ingests with every invariant intact and the fleet total
// matching the collector's own snapshot.
func TestChargebackFromCollectorLedger(t *testing.T) {
	led := obs.NewLedger("chargeback-e2e")
	reg := obs.NewRegistry()
	reg.SetLedger(led)
	m, err := attr.ReferenceModel(config.Volta())
	if err != nil {
		t.Fatal(err)
	}
	c, err := attr.New(attr.Config{
		Model: m, Registry: reg, Tenants: 6, Workers: 2, Seed: 7,
		TickSeconds: 1e-3, WindowTicks: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run(50)
	c.Flush()

	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	if err := led.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	rows, err := energyFromLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d tenants, want 6", len(rows))
	}
	snap := c.Snapshot()
	byName := make(map[string]float64, len(snap))
	for _, te := range snap {
		byName[te.Tenant] = te.TotalJ
	}
	for _, r := range rows {
		want, ok := byName[r.Tenant]
		if !ok {
			t.Fatalf("ledger tenant %s unknown to the collector", r.Tenant)
		}
		if !closeEnough(r.TotalJ, want) {
			t.Fatalf("%s: ledger total %g vs collector %g", r.Tenant, r.TotalJ, want)
		}
	}
}
