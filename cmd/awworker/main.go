// Command awworker is a remote engine shard: a process that serves
// operating-point measurements over the shard task protocol to a
// coordinator running awtune, awvalidate, awsweep, or awserve (for its
// startup tuning) with -shards.
//
//	awworker -listen :9191 -arch volta                  # measurement shard
//	awtune -shards localhost:9191,localhost:9192        # coordinator
//
// A worker must be started with the same -arch/-full/-faults/-fault-seed as
// its coordinator: every task carries a configuration fingerprint, and a
// worker built differently refuses the task ("unsupported") so the
// coordinator computes it locally instead of adopting bytes from a
// divergent configuration. Placement can therefore never change a result —
// only who computes it.
//
// SIGINT/SIGTERM drains gracefully: /readyz flips to 503 (so dispatcher
// health checks quarantine this worker), new tasks are refused, in-flight
// tasks complete, and artifacts flush with run_end reason "sigterm".
// -crash-after N aborts the process mid-service after N tasks — the chaos
// suite's forced-failover lever.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"accelwattch"
	"accelwattch/internal/cli"
	"accelwattch/internal/shard"
	"accelwattch/internal/tune"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("awworker: ")
	var (
		listen    = flag.String("listen", ":9191", "listen address for the task protocol")
		archName  = flag.String("arch", "volta", "architecture this shard measures (volta, pascal, turing); must match the coordinator")
		full      = flag.Bool("full", false, "full-fidelity workload scale; must match the coordinator")
		faultName = flag.String("faults", "off", "power-meter fault profile ("+
			strings.Join(accelwattch.NamedFaultProfiles(), ", ")+"); must match the coordinator")
		faultSeed    = flag.Int64("fault-seed", 1, "deterministic seed for the fault injector; must match the coordinator")
		maxInflight  = flag.Int("max-inflight", 0, "concurrent task bound; excess answers 429 (0 = 4x GOMAXPROCS)")
		taskDeadline = flag.Duration("task-deadline", 30*time.Second, "per-task execution deadline; overruns answer 504")
		crashAfter   = flag.Int64("crash-after", 0, "abort the process after admitting this many tasks (0 = never); for failover testing")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight tasks")
	)
	traceOut, ledgerOut := cli.Artifacts()
	flag.Parse()

	arch, err := resolveArch(*archName)
	if err != nil {
		log.Fatal(err)
	}
	sc := accelwattch.Quick
	if *full {
		sc = accelwattch.Full
	}
	prof, err := accelwattch.NamedFaultProfile(*faultName, *faultSeed)
	if err != nil {
		log.Fatal(err)
	}

	run := cli.Start("awworker", arch.Name+" faults="+*faultName, *traceOut, *ledgerOut)

	// Mirror the coordinator's testbench construction exactly — the task
	// fingerprint covers arch, scale, fault profile, and policy, and any
	// difference turns every task into a capability miss.
	tb, err := accelwattch.NewWorkerTestbench(arch, sc, accelwattch.SessionOptions{Faults: &prof})
	if err != nil {
		run.Fatal(err)
	}
	mux := shard.NewMux()
	tune.RegisterMeasureTask(mux, tb, tune.StandardWorkloads(arch, sc))

	var onTask func(int64)
	if *crashAfter > 0 {
		limit := *crashAfter
		onTask = func(n int64) {
			if n > limit {
				// A hard abort, not a drain: the coordinator must observe a
				// mid-flight transport failure and fail over.
				log.Printf("crash-after %d reached; aborting", limit)
				os.Exit(2)
			}
		}
	}
	worker, err := shard.NewWorker(shard.WorkerConfig{
		Mux:         mux,
		MaxInflight: *maxInflight,
		Deadline:    *taskDeadline,
		OnTask:      onTask,
	})
	if err != nil {
		run.Fatal(err)
	}

	httpSrv := &http.Server{Addr: *listen, Handler: worker.Handler()}
	errc := make(chan error, 1)
	go func() {
		run.Log.Info("serving shard tasks", "addr", *listen, "kinds", strings.Join(mux.Kinds(), ","),
			"fingerprint", tb.Fingerprint())
		errc <- httpSrv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		run.Log.Info("signal received; draining", "served", worker.Served())
	case err := <-errc:
		run.Fatal(err)
	}

	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := worker.Drain(dctx); err != nil {
		run.Log.Error("drain incomplete", "err", err)
	}
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		run.Log.Error("http shutdown", "err", err)
	}
	if err := run.CloseReason("sigterm"); err != nil {
		run.Log.Error("writing artifacts", "err", err)
		os.Exit(1)
	}
}

// resolveArch maps a -arch flag value onto a stock architecture.
func resolveArch(name string) (*accelwattch.Arch, error) {
	switch name {
	case "volta":
		return accelwattch.Volta(), nil
	case "pascal":
		return accelwattch.Pascal(), nil
	case "turing":
		return accelwattch.Turing(), nil
	default:
		return nil, errors.New("unknown architecture " + name + " (want volta, pascal, or turing)")
	}
}
