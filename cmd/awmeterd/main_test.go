package main

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"accelwattch/internal/cli"
	"accelwattch/internal/obs"
)

func testOptions() options {
	return options{
		archName: "volta", tenants: 12, workers: 3, seed: 42,
		tick: time.Millisecond, window: 0, maxSeries: 64,
		faultName: "off", faultSeed: 1,
	}
}

// The SIGTERM path settles every tenant's partial window into the ledger,
// writes the metrics snapshot, and closes the run with reason "sigterm" —
// the shutdown-flush regression test. Without the flush, a daemon killed
// mid-window would lose every joule since the last window event.
func TestShutdownFlush(t *testing.T) {
	dir := t.TempDir()
	ledgerPath := filepath.Join(dir, "ledger.jsonl")
	metricsPath := filepath.Join(dir, "metrics.json")

	run := cli.StartCapped("awmeterd-test", "volta", "", ledgerPath, 0)
	reg := obs.Default()
	c, err := buildCollector(testOptions(), reg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run(37) // window=0: nothing settled yet, all 37 ticks are in flight

	if err := shutdownFlush(c, reg, run, metricsPath, "sigterm"); err != nil {
		t.Fatal(err)
	}

	evs, err := obs.ReadLedgerFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	var nrg int
	var end *obs.Event
	for i, ev := range evs {
		switch ev.Kind {
		case obs.KindEnergy:
			nrg++
			if ev.Ticks != 37 {
				t.Fatalf("flush window covers %d ticks, want 37", ev.Ticks)
			}
			if math.Float64bits(ev.JoulesTotal) != math.Float64bits(ev.JoulesActive+ev.JoulesIdle) {
				t.Fatalf("event %d: joules_total not bit-exactly active+idle", i)
			}
		case obs.KindRunEnd:
			end = &evs[i]
		}
	}
	if nrg != 12 {
		t.Fatalf("flushed %d energy events, want one per tenant (12)", nrg)
	}
	if end == nil || end.Reason != "sigterm" {
		t.Fatalf("run_end missing or wrong reason: %+v", end)
	}

	snap, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"aw_tenant_joules_total", "aw_attr_ticks_total", "aw_tenant_watts"} {
		if !strings.Contains(string(snap), want) {
			t.Fatalf("metrics snapshot missing %s", want)
		}
	}
}

// The -retire schedule garbage-collects every retired tenant's labels from
// the exposition — the property the CI cardinality gate greps for.
func TestRetirementSchedulePrunesLabels(t *testing.T) {
	reg := obs.NewRegistry()
	o := testOptions()
	o.retire = 5
	c, err := buildCollector(o, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run(60) // lifetimeFor retires tenants 0-4 by tick 59

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	exp := sb.String()
	for _, gone := range []string{"tenant-0000", "tenant-0001", "tenant-0004"} {
		if strings.Contains(exp, gone) {
			t.Fatalf("retired tenant %s survived exposition", gone)
		}
	}
	if !strings.Contains(exp, "tenant-0005") {
		t.Fatal("immortal tenant missing from exposition")
	}
	if c.Live() != 7 {
		t.Fatalf("live %d, want 7", c.Live())
	}
}

func TestLifetimeSchedule(t *testing.T) {
	if lifetimeFor(3, 3) != 0 || lifetimeFor(0, 0) != 0 {
		t.Fatal("tenants beyond -retire must be immortal")
	}
	for i := 0; i < 200; i++ {
		lt := lifetimeFor(200, i)
		if lt < 10 || lt > 59 {
			t.Fatalf("tenant %d lifetime %d outside [10, 59]", i, lt)
		}
	}
}

func TestMuxSurface(t *testing.T) {
	reg := obs.NewRegistry()
	o := testOptions()
	c, err := buildCollector(o, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run(3)

	st := &state{archName: o.archName, tenants: o.tenants}
	st.ticks.Store(c.Ticks())
	st.live.Store(int64(c.Live()))
	srv := httptest.NewServer(cli.AdminMux(reg, st.serveHealth, st.index()))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "aw_tenant_joules_total") {
		t.Fatalf("/metrics = %d:\n%.300s", code, body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, `"ticks":3`) {
		t.Fatalf("/healthz = %d: %s", code, body)
	}
	// The pprof index is mounted, and so is the cmdline route it links to.
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/goroutine?debug=1"} {
		if code, body := get(path); code != 200 {
			t.Fatalf("%s = %d: %.200s", path, code, body)
		}
	}
	if code, body := get("/"); code != 200 || !strings.HasPrefix(body, "awmeterd: continuous energy attribution for volta") {
		t.Fatalf("/ = %d: %s", code, body)
	}
	if code, _ := get("/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path not 404")
	}
}
