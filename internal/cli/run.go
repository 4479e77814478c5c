// Package cli holds the plumbing shared by the aw* commands: run-scoped
// ledger installation, run-ID-correlated structured logging, atomic
// trace/ledger artifact writes, the daemons' admin HTTP mux (AdminMux) and
// model-zoo manifest loading. Every command wires the first three the same
// way —
//
//	traceOut, ledgerOut := cli.Artifacts()
//	flag.Parse()
//	run := cli.Start("awtune", arch.Name, *traceOut, *ledgerOut)
//	... pipeline, failing via run.Fatal ...
//	run.Close()
//
// — so one run ID correlates the JSONL ledger, the Perfetto-loadable trace,
// and every diagnostic log line the command emits.
package cli

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"sync"

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
// run accumulated (a failed run's ledger and trace are exactly the ones
// worth keeping), logs, and exits non-zero.
func (r *Run) Fatalf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.Led.Emit(obs.Event{Kind: obs.KindRunEnd, Reason: "error", Error: msg})
	r.write()
	r.Log.Error(msg)
	os.Exit(1)
}

// Fatal is Fatalf for a bare error.
func (r *Run) Fatal(err error) { r.Fatalf("%v", err) }

// Close emits the run_end event and writes the -trace-out and -ledger-out
// artifacts, each atomically (temp file + rename). It returns the first
// write error; the events and files remain usable either way.
func (r *Run) Close() error { return r.CloseReason("ok") }

// CloseReason is Close with an explicit run_end reason — a drained service
// records "sigterm" instead of "ok", so the ledger distinguishes a batch
// run that finished from a server that was asked to stop.
func (r *Run) CloseReason(reason string) error {
	r.Led.Emit(obs.Event{Kind: obs.KindRunEnd, Reason: reason})
	return r.write()
}

func (r *Run) write() error {
	var first error
	if r.ledgerOut != "" {
		if err := r.Led.WriteFile(r.ledgerOut); err != nil {
			if first == nil {
				first = err
			}
		} else {
			r.Log.Info("wrote ledger", "path", r.ledgerOut, "events", r.Led.Len())
		}
	}
	if r.traceOut != "" {
		if err := obs.Default().WriteChromeTraceFile(r.traceOut); err != nil {
			if first == nil {
				first = err
			}
		} else {
			r.Log.Info("wrote trace", "path", r.traceOut)
		}
	}
	return first
}
