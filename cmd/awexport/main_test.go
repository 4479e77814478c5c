package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"accelwattch"
	"accelwattch/internal/cli"
	"accelwattch/internal/obs"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestHealthzSemantics pins the readiness protocol: not ready until a
// pipeline run completes, last_error surfaces failures and clears on the
// next success.
func TestHealthzSemantics(t *testing.T) {
	st := newState("volta")
	srv := httptest.NewServer(cli.AdminMux(obs.NewRegistry(), st.serveHealth, st.index()))
	defer srv.Close()

	decode := func(body string) map[string]any {
		var m map[string]any
		if err := json.Unmarshal([]byte(body), &m); err != nil {
			t.Fatalf("healthz is not JSON: %v\n%s", err, body)
		}
		return m
	}

	code, body := get(t, srv.URL+"/healthz")
	m := decode(body)
	if code != http.StatusOK || m["ready"] != false || m["status"] != "ok" {
		t.Fatalf("fresh exporter healthz = %d %v, want 200 ready=false status=ok", code, m)
	}
	if _, has := m["last_error"]; has {
		t.Fatalf("fresh exporter reports last_error: %v", m)
	}

	st.lastErr.Store("pipeline exploded")
	_, body = get(t, srv.URL+"/healthz")
	if m = decode(body); m["last_error"] != "pipeline exploded" {
		t.Fatalf("failed run not surfaced: %v", m)
	}

	st.lastErr.Store("")
	st.ready.Store(true)
	st.runs.Add(1)
	_, body = get(t, srv.URL+"/healthz")
	m = decode(body)
	if m["ready"] != true || m["runs"] != float64(1) {
		t.Fatalf("recovered exporter healthz = %v, want ready=true runs=1", m)
	}
	if _, has := m["last_error"]; has {
		t.Fatalf("cleared error still reported: %v", m)
	}
}

// TestPprofRoutesWired asserts the profiling surface is mounted on the
// exporter mux — each endpoint answers 200 with its expected content.
func TestPprofRoutesWired(t *testing.T) {
	st := newState("volta")
	srv := httptest.NewServer(cli.AdminMux(obs.NewRegistry(), st.serveHealth, st.index()))
	defer srv.Close()

	for path, want := range map[string]string{
		"/debug/pprof/":                  "Types of profiles available",
		"/debug/pprof/cmdline":           "",
		"/debug/pprof/goroutine?debug=1": "goroutine profile",
		"/debug/pprof/heap?debug=1":      "heap profile",
	} {
		code, body := get(t, srv.URL+path)
		if code != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, code)
		}
		if want != "" && !strings.Contains(body, want) {
			t.Errorf("GET %s missing %q:\n%.200s", path, want, body)
		}
	}

	// The index handler still 404s unknown paths.
	if code, _ := get(t, srv.URL+"/nope"); code != http.StatusNotFound {
		t.Errorf("GET /nope = %d, want 404", code)
	}
}

// TestConcurrentScrapesDuringTune scrapes /metrics from several clients
// while a real (tiny-scale) tuning pipeline mutates the registry — the
// exporter's steady-state workload. Run with -race this doubles as the
// scrape-versus-pipeline data-race check.
func TestConcurrentScrapesDuringTune(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a tune")
	}
	reg := obs.Default()
	obs.RegisterRuntimeMetrics(reg)
	st := newState("volta")
	srv := httptest.NewServer(cli.AdminMux(reg, st.serveHealth, st.index()))
	defer srv.Close()

	done := make(chan error, 1)
	go func() {
		sc := accelwattch.Scale{Iters: 2, Unroll: 1, WarpsPerCTA: 2}
		_, err := accelwattch.NewSessionWithOptions(accelwattch.Volta(), sc,
			accelwattch.SessionOptions{Workers: 4})
		done <- err
	}()

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				resp, err := http.Get(srv.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				b, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("scrape %d: status %d, err %v", i, resp.StatusCode, err)
					return
				}
				out := string(b)
				if !strings.Contains(out, "# TYPE") || !strings.Contains(out, "aw_go_goroutines") {
					t.Errorf("scrape %d: malformed exposition:\n%.200s", i, out)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestShutdownFlush is the SIGTERM-path regression test: the shared exit
// helper must settle the ledger to its JSONL artifact with run_end reason
// "sigterm" and write the final metrics snapshot, so a supervisor-killed
// exporter loses no telemetry.
func TestShutdownFlush(t *testing.T) {
	dir := t.TempDir()
	ledgerPath := filepath.Join(dir, "ledger.jsonl")
	metricsPath := filepath.Join(dir, "metrics.json")

	run := cli.Start("awexport-test", "volta", "", ledgerPath)
	reg := obs.Default()
	reg.GaugeVec("aw_export_ready",
		"1 once the exporter's pipeline has completed at least one run.", "arch").With("volta").Set(1)
	if led := obs.ActiveLedger(); led != nil {
		led.Emit(obs.Event{Kind: obs.KindFit, Stage: "test", Detail: "pre-sigterm"})
	} else {
		t.Fatal("cli.Start did not install a ledger")
	}

	if err := shutdownFlush(reg, run, metricsPath, "sigterm"); err != nil {
		t.Fatal(err)
	}

	evs, err := obs.ReadLedgerFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	var sawNote bool
	var end *obs.Event
	for i, ev := range evs {
		switch {
		case ev.Kind == obs.KindFit && ev.Detail == "pre-sigterm":
			sawNote = true
		case ev.Kind == obs.KindRunEnd:
			end = &evs[i]
		}
	}
	if !sawNote {
		t.Fatal("pre-shutdown ledger event lost in flush")
	}
	if end == nil || end.Reason != "sigterm" {
		t.Fatalf("run_end missing or wrong reason: %+v", end)
	}

	snap, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(snap), "aw_export_ready") {
		t.Fatal("metrics snapshot missing exporter series")
	}
}
