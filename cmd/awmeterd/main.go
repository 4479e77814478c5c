// Command awmeterd is the continuous energy-attribution daemon: the
// Kepler-style long-running collector the batch pipeline lacks. It samples
// synthetic counter feeds from a fleet of tenants every tick, evaluates
// each sample through the model's zero-allocation EstimateInto, integrates
// power into a per-tenant joules ledger split by idle/active power domain,
// and serves the result as a bounded Prometheus exposition:
//
//	awmeterd -addr :9768 -arch volta -tenants 256
//	curl localhost:9768/metrics | grep aw_tenant_joules_total
//	awmeterd -once -ticks 500 -tenants 1000 -retire 200   # CI cardinality gate
//
// Attribution is deterministic: same -seed, same fleet history, bit for
// bit, at any -workers setting and under any -faults chaos profile. Tenant
// metric series are capped at -max-tenant-series (beyond the cap, energy
// is conserved on a shared overflow series) and retired tenants' labels
// are garbage-collected from the exposition. SIGINT/SIGTERM settles every
// tenant's partial attribution window into the ledger, writes the final
// metrics snapshot, and flushes artifacts with run_end reason "sigterm".
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"accelwattch/internal/attr"
	"accelwattch/internal/cli"
	"accelwattch/internal/config"
	"accelwattch/internal/core"
	"accelwattch/internal/faults"
	"accelwattch/internal/obs"
)

// options is the daemon's parsed configuration, separated from flag
// plumbing so tests can build collectors exactly as main does.
type options struct {
	archName  string
	modelPath string
	tenants   int
	workers   int
	seed      int64
	tick      time.Duration // virtual sampling-window length
	window    int
	maxSeries int
	faultName string
	faultSeed int64
	retire    int
}

// lifetimeFor is the deterministic retirement schedule behind -retire n:
// the first n tenants retire between ticks 10 and 59, staggered by index,
// so any run of 60+ ticks exercises label GC. Everyone else is immortal.
func lifetimeFor(retire, i int) int64 {
	if i >= retire {
		return 0
	}
	return int64(10 + i%50)
}

// buildCollector assembles the attribution collector from daemon options.
func buildCollector(o options, reg *obs.Registry) (*attr.Collector, error) {
	arch, err := config.ByName(o.archName)
	if err != nil {
		return nil, err
	}
	var model *core.Model
	if o.modelPath != "" {
		if model, err = core.LoadModel(o.modelPath); err != nil {
			return nil, err
		}
	} else if model, err = attr.ReferenceModel(arch); err != nil {
		return nil, err
	}
	prof, err := faults.Named(o.faultName, o.faultSeed)
	if err != nil {
		return nil, err
	}
	cfg := attr.Config{
		Model:           model,
		Registry:        reg,
		Tenants:         o.tenants,
		Workers:         o.workers,
		Seed:            o.seed,
		TickSeconds:     o.tick.Seconds(),
		WindowTicks:     o.window,
		MaxTenantSeries: o.maxSeries,
	}
	if prof.Enabled() {
		cfg.Chaos = &prof
	}
	if o.retire > 0 {
		r := o.retire
		cfg.LifetimeTicks = func(i int) int64 { return lifetimeFor(r, i) }
	}
	return attr.New(cfg)
}

// shutdownFlush is the daemon's exit path, shared by -once and the signal
// handler: settle every tenant's partial attribution window into the
// ledger, write the final metrics snapshot, and flush run artifacts with
// the given close reason. Every integrated joule is accounted for before
// the process exits.
func shutdownFlush(c *attr.Collector, reg *obs.Registry, run *cli.Run, metricsOut, reason string) error {
	c.Flush()
	var first error
	if metricsOut != "" {
		if err := reg.WriteJSONFile(metricsOut); err != nil {
			first = err
		} else {
			run.Log.Info("wrote metrics snapshot", "path", metricsOut)
		}
	}
	if err := run.CloseReason(reason); err != nil && first == nil {
		first = err
	}
	return first
}

// state is what /healthz reports; mirrored out of the collector after each
// tick because the collector itself is single-goroutine.
type state struct {
	archName string
	tenants  int
	ticks    atomic.Int64
	live     atomic.Int64
}

func (st *state) serveHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":  "ok",
		"arch":    st.archName,
		"tenants": st.tenants,
		"live":    st.live.Load(),
		"ticks":   st.ticks.Load(),
	})
}

// index is the text of the daemon's / page.
func (st *state) index() string {
	return fmt.Sprintf("awmeterd: continuous energy attribution for %s (%d tenants)\n"+
		"/metrics       Prometheus text exposition (per-tenant joules/watts)\n"+
		"/healthz       JSON health probe\n"+
		"/debug/pprof/  Go profiling endpoints\n", st.archName, st.tenants)
}

func main() {
	var (
		addr      = flag.String("addr", ":9768", "HTTP listen address")
		archName  = flag.String("arch", "volta", "architecture to attribute on (volta, pascal, turing)")
		modelPath = flag.String("model", "", "power model file (accelwattch-model-v1 JSON); default is the untuned reference model")
		tenants   = flag.Int("tenants", 256, "synthetic tenant fleet size")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "sampling worker count (attribution is identical at any setting)")
		seed      = flag.Int64("seed", 1, "deterministic seed for the tenant feeds")
		tick      = flag.Duration("tick", time.Millisecond, "virtual length of one sampling window")
		interval  = flag.Duration("interval", 10*time.Millisecond, "wall-clock period between sampling ticks (0 = free-run)")
		ticks     = flag.Int("ticks", 500, "ticks to run in -once mode")
		window    = flag.Int("window", 100, "ticks per attribution-ledger window event (0 = final flush only)")
		maxSeries = flag.Int("max-tenant-series", attr.DefaultMaxTenantSeries,
			"cardinality cap: max dedicated tenant label values; the excess shares one overflow series")
		faultName = flag.String("faults", "off", "perturb the counter feeds with a deterministic chaos profile ("+
			strings.Join(faults.Names(), ", ")+")")
		faultSeed = flag.Int64("fault-seed", 1, "seed for the chaos profile")
		retire    = flag.Int("retire", 0, "retire the first n tenants mid-run on a fixed schedule (exercises label GC)")
		ledgerCap = flag.Int("ledger-cap", 65536, "attribution-ledger retention in events (0 = unbounded; unsafe for long runs)")
		once      = flag.Bool("once", false, "run -ticks sampling ticks, print /metrics output to stdout, and exit")
		out       = flag.String("metrics-out", "", "write the JSON telemetry snapshot to this file on exit")
	)
	traceOut, ledgerOut := cli.Artifacts()
	flag.Parse()

	o := options{
		archName: *archName, modelPath: *modelPath, tenants: *tenants,
		workers: *workers, seed: *seed, tick: *tick, window: *window,
		maxSeries: *maxSeries, faultName: *faultName, faultSeed: *faultSeed,
		retire: *retire,
	}
	run := cli.StartCapped("awmeterd",
		fmt.Sprintf("%s tenants=%d faults=%s", *archName, *tenants, *faultName),
		*traceOut, *ledgerOut, *ledgerCap)
	reg := obs.Default()
	obs.RegisterRuntimeMetrics(reg)

	c, err := buildCollector(o, reg)
	if err != nil {
		run.Fatal(err)
	}
	defer c.Close()

	if *once {
		c.Run(*ticks)
		if err := shutdownFlush(c, reg, run, *out, "ok"); err != nil {
			run.Log.Error("flush", "err", err)
			os.Exit(1)
		}
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "awmeterd: %v\n", err)
			os.Exit(1)
		}
		return
	}

	st := &state{archName: *archName, tenants: *tenants}
	httpSrv := &http.Server{Addr: *addr, Handler: cli.AdminMux(reg, st.serveHealth, st.index())}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		var tickc <-chan time.Time
		if *interval > 0 {
			t := time.NewTicker(*interval)
			defer t.Stop()
			tickc = t.C
		}
		for {
			select {
			case <-ctx.Done():
				return
			default:
			}
			if tickc != nil {
				select {
				case <-ctx.Done():
					return
				case <-tickc:
				}
			}
			c.Tick()
			st.ticks.Store(c.Ticks())
			st.live.Store(int64(c.Live()))
		}
	}()

	run.Log.Info("attributing", "arch", *archName, "addr", *addr,
		"tenants", *tenants, "workers", *workers, "faults", *faultName)
	select {
	case <-ctx.Done():
		run.Log.Info("signal received; settling attribution windows")
	case err := <-errc:
		run.Fatal(err)
	}
	stop()
	<-loopDone

	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil {
		run.Log.Error("http shutdown", "err", err)
	}
	if err := shutdownFlush(c, reg, run, *out, "sigterm"); err != nil {
		run.Log.Error("writing artifacts", "err", err)
		os.Exit(1)
	}
}
