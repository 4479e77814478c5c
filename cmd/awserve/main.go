// Command awserve is the long-running power-estimation gateway: it builds a
// model zoo once at startup — tuned, loaded from files, or derived across
// architectures — then answers estimation requests over HTTP until asked to
// drain.
//
//	awserve -addr :8080                 # tune Volta at Quick scale, serve
//	awserve -model volta.json           # serve a saved model for all variants
//	awserve -models manifest.json       # serve a multi-architecture model zoo
//	curl -d '{"variant":"SASS_SIM","cycles":1e6,...}' localhost:8080/estimate
//	curl -d '{"arch":"pascal","variant":"SASS_SIM",...}' localhost:8080/estimate
//
// Under -models, requests route by the "model" (entry name) or "arch"
// (family alias) body field, and the admin endpoints (GET /models, PUT
// /models/{name}, DELETE /models/{name}) hot-add, replace, or retire
// entries under load without draining.
//
// Each estimate is computed in its request handler: at most -workers
// computations run at once, up to -queue more wait for a slot (until
// -deadline, then 504), and a cache miss beyond that answers 429. A cache
// hit takes no slot.
//
// SIGINT/SIGTERM triggers a graceful drain: readiness flips to 503, new
// estimation work is refused, accepted work is answered, in-flight HTTP
// responses complete, and the ledger/trace artifacts are flushed with
// run_end reason "sigterm".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"accelwattch/internal/cli"
	"accelwattch/internal/core"
	"accelwattch/internal/serve"
	"accelwattch/internal/zoo"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("awserve: ")
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		archName     = flag.String("arch", "volta", "architecture to tune at startup (volta, pascal, turing)")
		full         = flag.Bool("full", false, "tune at the full-fidelity workload scale")
		modelPath    = flag.String("model", "", "serve a saved model file (accelwattch-model-v1 JSON) for all variants instead of tuning")
		manifestPath = flag.String("models", "", "serve a multi-architecture model zoo from a manifest file (overrides -model/-arch)")
		workers      = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent estimate computations, and startup tuning workers (responses are identical at any setting)")
		queue        = flag.Int("queue", serve.DefaultQueueSize, "estimates that may wait for a compute slot; beyond that a cache miss answers 429")
		cacheSize    = flag.Int("cache", 4096, "response LRU capacity in entries (0 disables caching)")
		deadline     = flag.Duration("deadline", serve.DefaultDeadline, "how long a request may wait for a compute slot before answering 504")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for accepted work and in-flight responses")
		ledgerCap    = flag.Int("ledger-cap", 65536, "attribution-ledger retention in events (0 = unbounded; unsafe for long runs)")
	)
	traceOut, ledgerOut := cli.Artifacts()
	flag.Parse()

	run := cli.StartCapped("awserve", *archName, *traceOut, *ledgerOut, *ledgerCap)
	set, err := buildSet(*manifestPath, *modelPath, *archName, *full, *workers,
		func(format string, args ...any) { run.Log.Warn(fmt.Sprintf(format, args...)) })
	if err != nil {
		run.Fatal(err)
	}
	for _, e := range set.Entries {
		run.Log.Info("model ready", "name", e.Name, "arch", e.Arch, "source", e.Source,
			"variants", len(e.Variants()), "default", e.Name == set.Default)
	}

	srv, err := serve.New(serve.Config{
		Zoo:       set,
		Workers:   *workers,
		QueueSize: *queue,
		CacheSize: *cacheSize,
		Deadline:  *deadline,
	})
	if err != nil {
		run.Fatal(err)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Mux()}
	errc := make(chan error, 1)
	go func() {
		run.Log.Info("listening", "addr", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		run.Log.Info("signal received; draining")
	case err := <-errc:
		run.Fatal(err)
	}

	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		run.Log.Error("drain incomplete", "err", err)
	}
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		run.Log.Error("http shutdown", "err", err)
	}
	srv.Close()
	if err := run.CloseReason("sigterm"); err != nil {
		run.Log.Error("writing artifacts", "err", err)
		os.Exit(1)
	}
}

// buildSet produces the model zoo the gateway serves. Three shapes:
//
//   - -models manifest.json: the full multi-architecture zoo — tuned,
//     file-loaded, and derived entries, with routing and admin enabled
//     across all of them;
//   - -model file.json: the legacy single-file mode, one saved model
//     answering for every variant. A model that records the variant it was
//     tuned under still serves all variants here (flag compatibility), but
//     the mismatch is logged loudly at startup and counted per estimate in
//     aw_serve_variant_mismatch_total;
//   - neither: tune -arch at startup, exactly as before.
func buildSet(manifestPath, modelPath, archName string, full bool, workers int,
	warn func(format string, args ...any)) (*zoo.Set, error) {
	if warn == nil {
		warn = func(string, ...any) {}
	}
	if manifestPath != "" {
		return cli.BuildModelSet(manifestPath, workers, nil, warn)
	}
	if modelPath != "" {
		m, err := core.LoadModel(modelPath)
		if err != nil {
			return nil, err
		}
		if m.TunedVariant != "" {
			warn("model %s records tuned variant %s but -model serves it for every variant — estimates under other variants are unvalidated (use a -models manifest to restrict)",
				modelPath, m.TunedVariant)
		}
		e, err := zoo.Uniform("saved", m, "file:"+modelPath)
		if err != nil {
			return nil, err
		}
		return &zoo.Set{Default: e.Name, Entries: []*zoo.Entry{e}}, nil
	}
	models, source, err := cli.TuneModels(workers)(archName, full)
	if err != nil {
		return nil, err
	}
	e, err := zoo.PerVariant(archName+"-tuned", models, source)
	if err != nil {
		return nil, err
	}
	return &zoo.Set{Default: e.Name, Entries: []*zoo.Entry{e}}, nil
}
