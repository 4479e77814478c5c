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
// (family, full or chip name) body field, and the admin endpoints (GET
// /models, PUT /models/{name}, DELETE /models/{name}) hot-add, replace, or
// retire entries under load without draining.
//
// Each cache miss is computed in its request handler as soon as it
// arrives; nothing queues or refuses it short of a drain. -workers sizes
// startup tuning only.
//
// SIGINT/SIGTERM triggers a graceful drain through cli.Run.Serve, all
// within -drain-timeout: readiness flips to 503, new estimation work is
// refused, accepted work is answered, and in-flight HTTP responses
// complete. The ledger and trace are written with run_end reason
// "sigterm" only once every admitted computation has finished, and the
// process exits 0.
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"time"

	"accelwattch/internal/cli"
	"accelwattch/internal/serve"
	"accelwattch/internal/zoo"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("awserve: ")
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		archName     = flag.String("arch", "volta", "architecture to tune at startup (volta, pascal, turing, or a full or chip name such as titanx)")
		full         = flag.Bool("full", false, "tune at the full-fidelity workload scale")
		modelPath    = flag.String("model", "", "serve a saved model file (accelwattch-model-v1 JSON) for all variants instead of tuning")
		manifestPath = flag.String("models", "", "serve a multi-architecture model zoo from a manifest file (overrides -model/-arch)")
		workers      = flag.Int("workers", runtime.GOMAXPROCS(0), "startup tuning workers (the tuned models are identical at any setting)")
		cacheSize    = flag.Int("cache", 4096, "response LRU capacity in entries (0 disables caching)")
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

	srv, err := serve.New(serve.Config{Zoo: set, CacheSize: *cacheSize})
	if err != nil {
		run.Fatal(err)
	}

	run.Serve(cli.SignalContext(), *addr, srv.Mux(), *drainTimeout, srv.Drain)
}

// buildSet produces the model zoo the gateway serves. Every mode is a
// manifest built by zoo.Build:
//
//   - -models manifest.json: the full multi-architecture zoo — tuned,
//     file-loaded, and derived entries, with routing and admin enabled
//     across all of them;
//   - -model file.json: a one-entry manifest, the file entry "saved" with
//     all_variants set. A model that records the variant it was tuned
//     under still serves every variant here (flag compatibility), but the
//     mismatch is logged loudly at startup and counted per estimate in
//     aw_serve_variant_mismatch_total;
//   - neither: a one-entry manifest that tunes -arch at startup, the entry
//     "<arch>-tuned".
func buildSet(manifestPath, modelPath, archName string, full bool, workers int,
	warn func(format string, args ...any)) (*zoo.Set, error) {
	if manifestPath != "" {
		return cli.BuildModelSet(manifestPath, workers, nil, warn)
	}
	me := zoo.ManifestEntry{Name: archName + "-tuned", Tune: &zoo.TuneSpec{Arch: archName, Full: full}}
	if modelPath != "" {
		me = zoo.ManifestEntry{Name: "saved", File: modelPath, AllVariants: true}
	}
	return zoo.Build(&zoo.Manifest{Models: []zoo.ManifestEntry{me}},
		zoo.BuildOptions{Tune: cli.TuneModels(workers), Warn: warn})
}
