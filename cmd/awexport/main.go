// Command awexport is the observability endpoint of the pipeline: it runs
// the AccelWattch tuning flow (and optionally the validation suite) while
// serving the process-wide obs registry as a Prometheus-style exporter —
// /metrics in text exposition format, /healthz as a JSON liveness/readiness
// probe, /debug/pprof/* as the Go profiling surface — in the mould of the
// GPU power exporters (Kepler, DCGM) that motivated the metric naming
// scheme.
//
// Typical use:
//
//	awexport -addr :9767 -arch volta -faults chaos
//	curl localhost:9767/metrics | grep aw_tune
//	go tool pprof localhost:9767/debug/pprof/profile?seconds=10
//
// With -interval the pipeline re-runs on a fresh session forever, so the
// engine/tune/faults/eval series keep moving for a scraping Prometheus;
// without it the pipeline runs once and the final state stays up for
// scraping. -once skips the HTTP server entirely and dumps the exposition
// to stdout, which is what the golden CI check consumes. In serve mode,
// SIGINT/SIGTERM stops through cli.Run.Serve: the HTTP server shuts down
// within 5 s, without waiting for a pipeline run in flight, and the run
// writes the -metrics-out snapshot and the trace/ledger artifacts with
// run_end reason "sigterm" before exiting 0. A failed run writes them too.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"accelwattch"
	"accelwattch/internal/cli"
	"accelwattch/internal/config"
	"accelwattch/internal/obs"
)

// state is what /healthz reports about the pipeline feeding the metrics.
type state struct {
	ready    atomic.Bool
	runs     atomic.Int64
	lastErr  atomic.Value // string
	archName string
}

func newState(archName string) *state {
	st := &state{archName: archName}
	st.lastErr.Store("")
	return st
}

func (st *state) serveHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	resp := map[string]any{
		"status": "ok",
		"ready":  st.ready.Load(),
		"arch":   st.archName,
		"runs":   st.runs.Load(),
	}
	if e := st.lastErr.Load().(string); e != "" {
		resp["last_error"] = e
	}
	json.NewEncoder(w).Encode(resp)
}

// index is the text of the exporter's / page.
func (st *state) index() string {
	return fmt.Sprintf("awexport: AccelWattch telemetry for %s\n"+
		"/metrics       Prometheus text exposition\n"+
		"/healthz       JSON health probe\n"+
		"/debug/pprof/  Go profiling endpoints\n", st.archName)
}

// serve runs pipeline once, or every interval until ctx ends, while the
// admin mux serves on addr. The stop does not wait for a run in flight.
func serve(ctx context.Context, run *cli.Run, st *state, addr string, interval time.Duration, pipeline func()) {
	go func() {
		for {
			start := time.Now()
			pipeline()
			if interval <= 0 {
				return
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(interval - time.Since(start)):
			}
		}
	}()
	run.Serve(ctx, addr, cli.AdminMux(obs.Default(), st.serveHealth, st.index()), 5*time.Second, nil)
}

func main() {
	var (
		addr      = flag.String("addr", ":9767", "HTTP listen address")
		archName  = flag.String("arch", "volta", "architecture to tune (volta, pascal, turing, or a full or chip name such as titanx)")
		full      = flag.Bool("full", false, "use the full-fidelity workload scale")
		validate  = flag.Bool("validate", true, "run the four-variant validation suite after tuning")
		faultName = flag.String("faults", "off", "inject power-meter faults ("+
			strings.Join(accelwattch.NamedFaultProfiles(), ", ")+")")
		faultSeed = flag.Int64("fault-seed", 1, "deterministic seed for the fault injector")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "execution-engine worker count")
		interval  = flag.Duration("interval", 0, "re-run the pipeline on a fresh session at this period (0 = run once)")
		once      = flag.Bool("once", false, "run the pipeline once, print /metrics output to stdout, and exit")
		out       = flag.String("metrics-out", "", "write the JSON telemetry snapshot to this file on exit (with -once, or on SIGTERM in serve mode)")
	)
	traceOut, ledgerOut := cli.Artifacts()
	flag.Parse()

	arch, err := config.ByName(*archName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "awexport: %v\n", err)
		os.Exit(1)
	}
	sc := accelwattch.Quick
	if *full {
		sc = accelwattch.Full
	}
	prof, err := accelwattch.NamedFaultProfile(*faultName, *faultSeed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "awexport: %v\n", err)
		os.Exit(1)
	}
	run := cli.Start("awexport", arch.Name+" faults="+*faultName, *traceOut, *ledgerOut)
	run.MetricsOut = *out
	logger := run.Log

	st := newState(arch.Name)
	reg := obs.Default()
	obs.RegisterRuntimeMetrics(reg)
	ready := reg.GaugeVec("aw_export_ready",
		"1 once the exporter's pipeline has completed at least one run.", "arch").With(arch.Name)
	runsDone := reg.CounterVec("aw_export_pipeline_runs_total",
		"Pipeline runs completed by the exporter, by outcome.", "outcome")

	runOnce := func() {
		sess, err := accelwattch.NewSessionWithOptions(arch, sc,
			accelwattch.SessionOptions{Faults: &prof, Workers: *workers})
		if err == nil && *validate {
			_, err = sess.ValidateAll()
		}
		if err != nil {
			st.lastErr.Store(err.Error())
			runsDone.With("error").Inc()
			logger.Error("pipeline run failed", "err", err)
			return
		}
		st.lastErr.Store("")
		st.ready.Store(true)
		st.runs.Add(1)
		ready.Set(1)
		runsDone.With("ok").Inc()
		logger.Info("pipeline run complete", "runs", st.runs.Load())
	}

	if *once {
		runOnce()
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			run.Fatal(err)
		}
		if e := st.lastErr.Load().(string); e != "" {
			run.Fatalf("pipeline failed: %s", e)
		}
		if err := run.Close(); err != nil {
			logger.Error("writing artifacts", "err", err)
			os.Exit(1)
		}
		return
	}

	logger.Info("serving telemetry",
		"arch", arch.Name, "addr", *addr, "workers", *workers, "faults", *faultName)
	serve(cli.SignalContext(), run, st, *addr, *interval, runOnce)
}
