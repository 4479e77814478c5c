// Package cli holds the plumbing shared by the aw* commands: run-scoped
// ledger installation, run-ID-correlated structured logging, atomic
// snapshot/trace/ledger artifact writes, the lifecycle of the long-running
// commands (Run.Serve), the daemons' admin HTTP mux (AdminMux) and
// model-zoo manifest loading. Every command wires the first three the same
// way —
//
//	traceOut, ledgerOut := cli.Artifacts()
//	flag.Parse()
//	run := cli.Start("awtune", arch.Name, *traceOut, *ledgerOut)
//	run.MetricsOut = *metricsOut
//	... pipeline, failing via run.Fatal ...
//	run.Close()
//
// — so one run ID correlates the JSONL ledger, the Perfetto-loadable trace,
// the telemetry snapshot and every diagnostic log line the command emits.
package cli

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"accelwattch/internal/obs"
)

// Artifacts registers the common observability output flags on the default
// flag set. Call it before flag.Parse.
func Artifacts() (traceOut, ledgerOut *string) {
	traceOut = flag.String("trace-out", "",
		"write the span trace as Chrome trace-event JSON (loadable in Perfetto / chrome://tracing) to this file")
	ledgerOut = flag.String("ledger-out", "",
		"write the JSONL power-attribution ledger (measurements, fits, quarantines, breakdowns) to this file")
	return traceOut, ledgerOut
}

// Run is one command invocation's observability context: its run ID, the
// ledger installed on the default registry, and a structured logger that
// stamps every line with the run ID.
type Run struct {
	ID  string
	Led *obs.Ledger
	Log *slog.Logger

	// MetricsOut, if set, receives the registry's JSON snapshot
	// (-metrics-out) whenever the run writes its ledger and trace.
	MetricsOut string

	traceOut  string
	ledgerOut string
}

// Start mints a run ID, installs a fresh ledger on the default obs registry
// and emits the run_start event. tool names the command; detail carries its
// headline configuration (architecture, fault profile).
func Start(tool, detail, traceOut, ledgerOut string) *Run {
	return start(tool, detail, traceOut, ledgerOut, 0)
}

// StartCapped is Start with a bounded ring-buffer ledger — the form for
// long-running services, whose event stream would otherwise grow without
// limit. ledgerCap < 1 falls back to an unbounded ledger.
func StartCapped(tool, detail, traceOut, ledgerOut string, ledgerCap int) *Run {
	return start(tool, detail, traceOut, ledgerOut, ledgerCap)
}

// ledgerMetricsOnce guards the aw_ledger_dropped_total and aw_build_info
// registrations: the OnCollect hook survives ledger swaps and the build
// identity is a process constant, so one per process is exactly right.
var ledgerMetricsOnce sync.Once

func start(tool, detail, traceOut, ledgerOut string, ledgerCap int) *Run {
	id := obs.NewRunID()
	led := obs.NewLedgerCap(id, ledgerCap)
	obs.SetLedger(led)
	ledgerMetricsOnce.Do(func() {
		obs.RegisterLedgerMetrics(obs.Default())
		obs.RegisterBuildInfo(obs.Default())
	})
	r := &Run{
		ID:        id,
		Led:       led,
		Log:       obs.NewLogger(os.Stderr, id).With("tool", tool),
		traceOut:  traceOut,
		ledgerOut: ledgerOut,
	}
	led.Emit(obs.Event{Kind: obs.KindRunStart, Stage: tool, Detail: detail})
	return r
}

// Fatalf records the failure in the ledger, flushes whatever artifacts the
// run accumulated (a failed run's snapshot, ledger and trace are exactly
// the ones worth keeping), logs, and exits non-zero.
func (r *Run) Fatalf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.end(obs.Event{Kind: obs.KindRunEnd, Reason: "error", Error: msg})
	r.Log.Error(msg)
	os.Exit(1)
}

// Fatal is Fatalf for a bare error.
func (r *Run) Fatal(err error) { r.Fatalf("%v", err) }

// Close emits the run_end event and writes the -metrics-out, -trace-out
// and -ledger-out artifacts, each atomically (temp file + rename). It
// returns the first write error; the events and files remain usable either
// way.
func (r *Run) Close() error { return r.CloseReason("ok") }

// CloseReason is Close with an explicit run_end reason — a drained service
// records "sigterm" instead of "ok", so the ledger distinguishes a batch
// run that finished from a server that was asked to stop.
func (r *Run) CloseReason(reason string) error {
	return r.end(obs.Event{Kind: obs.KindRunEnd, Reason: reason})
}

// end writes the snapshot, emits ev, then writes the ledger and the trace.
// The snapshot goes first so that its aw_ledger_dropped_total does not
// count an event the run_end emission sheds from a full capped ledger.
func (r *Run) end(ev obs.Event) error {
	var first error
	write := func(path, what string, f func(string) error, attrs ...any) {
		if path == "" {
			return
		}
		if err := f(path); err != nil {
			if first == nil {
				first = err
			}
			return
		}
		r.Log.Info("wrote "+what, append([]any{"path", path}, attrs...)...)
	}
	write(r.MetricsOut, "metrics snapshot", obs.Default().WriteJSONFile)
	r.Led.Emit(ev)
	write(r.ledgerOut, "ledger", r.Led.WriteFile, "events", r.Led.Len())
	write(r.traceOut, "trace", obs.Default().WriteChromeTraceFile)
	return first
}

// SignalContext ends at the first SIGINT or SIGTERM and then restores the
// default handling, so a second signal kills a command whose stop hangs.
func SignalContext() context.Context {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	return ctx
}

// Serve is the lifecycle of a long-running command. It serves h on addr
// until ctx ends, then, within timeout: runs drain (the command's own stop
// step; nil for none) while the listener still answers, shuts the listener
// down, and closes the run with reason "sigterm". A drain that ran out of
// time is called again without a deadline before the run closes, so the
// artifacts follow the command's last work. A listener that fails ends the
// run through Fatal; an artifact that cannot be written exits 1.
func (r *Run) Serve(ctx context.Context, addr string, h http.Handler, timeout time.Duration,
	drain func(context.Context) error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		r.Fatal(err)
	}
	srv := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	r.Log.Info("listening", "addr", ln.Addr().String())
	select {
	case <-ctx.Done():
	case err := <-served:
		r.Fatal(err)
	}

	r.Log.Info("draining", "timeout", timeout)
	sctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var drainErr error
	if drain != nil {
		if drainErr = drain(sctx); drainErr != nil {
			r.Log.Error("drain incomplete", "err", drainErr)
		}
	}
	if err := srv.Shutdown(sctx); err != nil {
		r.Log.Error("http shutdown", "err", err)
	}
	if drainErr != nil {
		_ = drain(context.Background()) // no deadline, so no error
	}
	if err := r.CloseReason("sigterm"); err != nil {
		r.Log.Error("writing artifacts", "err", err)
		os.Exit(1)
	}
}
