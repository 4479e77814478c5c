// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per invocation — the Quick tune + validate pipeline, or awserve
// under a hot-cache or cold-cache load — each in fresh processes, checks the
// outputs, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload serve_cold --seed 7 --seconds 10 --trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 it
// carries the per-layer metrics of a separate traced run. README.md maps
// every metric to its layer and workload.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef names one printed metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics of an untraced run and perLayer those of a
// traced run, with the units BENCHMARK.json declares (main_test.go checks
// the two agree). Every workload prints every metric of its list; a layer
// a workload never enters reads 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_pct", "%"},
}

var perLayer = []metricDef{
	{"emu.calls", "count"},
	{"emu.busy_s", "s"},
	{"emu.alloc_gb", "GB"},
	{"emu.warp_instrs", "count"},
	{"emu.ns_per_instr", "ns"},
	{"sim.calls", "count"},
	{"sim.busy_s", "s"},
	{"sim.alloc_gb", "GB"},
	{"sim.cycles", "cycles"},
	{"sim.ns_per_instr", "ns"},
	{"silicon.runs", "count"},
	{"silicon.profiles", "count"},
	{"silicon.busy_s", "s"},
	{"silicon.alloc_gb", "GB"},
	{"tune.fit_s", "s"},
	{"tune.fit_alloc_gb", "GB"},
	{"qp.solves", "count"},
	{"qp.iterations", "count"},
	{"eval.busy_s", "s"},
	{"eval.rows", "count"},
	{"tune.retained_mb", "MB"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"serve.decode_us", "us"},
	{"serve.key_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.compute_us", "us"},
	{"serve.handler_p50_us", "us"},
	{"serve.handler_p99_us", "us"},
	{"serve.self_us", "us"},
	{"serve.allocs_per_req", "count"},
	{"serve.bytes_per_req", "B"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.evictions_per_req", "ratio"},
	{"serve.batch_mean", "count"},
	{"serve.rejected", "count"},
	{"awserve.cpu_us_per_req", "us"},
	{"loadgen.cpu_us_per_req", "us"},
	{"serve.server_mean_us", "us"},
	{"http.overhead_us", "us"},
	{"client.p50_us", "us"},
	{"client.p99_us", "us"},
	{"trace.coverage_pct", "%"},
	{"trace.overhead_pct", "%"},
}

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	root     string // checkout root: examples/models lives here
	bin      string // directory holding the awserve binary
	child    string // pipeline child phase; empty in the parent
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record collects the human-readable run record printed before the result:
// environment, per-process settings, request counts, digests and the layer
// accounting report.
type record struct {
	lines []string
}

func (r *record) add(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *record) write(w io.Writer) {
	for _, l := range r.lines {
		fmt.Fprintln(w, "# "+l)
	}
}

// outcome is what a workload hands back: its correctness verdict, the
// operation counts, and every metric value of the list it was run for.
type outcome struct {
	correct   bool
	attempted int64
	failed    int64
	values    map[string]float64
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: tune_validate, serve_hot or serve_cold")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed serving window in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	flag.StringVar(&o.root, "root", ".", "root of the accelwattch checkout")
	flag.StringVar(&o.bin, "bin", ".bench_build/bin", "directory holding the awserve binary")
	flag.StringVar(&o.child, "child", "", "internal: run one pipeline phase (setup, job, traced) and report it")
	flag.Parse()

	if o.child != "" {
		if err := runPipelineChild(o.child); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runDeadline keeps every invocation, child processes included, inside the
// three minutes a run may take.
const runDeadline = 170 * time.Second

func run(o options) error {
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", o.trace)
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, not %d", o.seconds)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()

	rec := &record{}
	rec.add("workload %s  seed %d  seconds %d  trace %d", o.workload, o.seed, o.seconds, o.trace)
	rec.add("host: nproc %d  harness GOMAXPROCS %d  %s  cpu %q  MemAvailable %d MB",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), memAvailableMB())
	probe0 := hostProbe()

	var out *outcome
	var err error
	switch o.workload {
	case "tune_validate":
		out, err = runPipeline(ctx, o, rec)
	case "serve_hot", "serve_cold":
		out, err = runServe(ctx, o, rec)
	default:
		return fmt.Errorf("unknown -workload %q (want tune_validate, serve_hot or serve_cold)", o.workload)
	}
	if err != nil {
		return err
	}
	rec.add("host speed probe: SHA-256 of 32 MiB took %.1f ms of CPU before the run, %.1f ms after",
		probe0.Seconds()*1e3, hostProbe().Seconds()*1e3)
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	res, err := buildResult(out, defs)
	if err != nil {
		return err
	}
	rec.write(os.Stdout)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// buildResult turns an outcome into the result line, insisting that every
// listed metric was measured and is a finite number, and that nothing else
// was.
func buildResult(out *outcome, defs []metricDef) (*result, error) {
	res := &result{Correct: out.correct, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]metric, len(defs))}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite: %v", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(out.values) != len(defs) {
		var extra []string
		for name := range out.values {
			if _, ok := res.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics outside the printed list: %v", extra)
	}
	return res, nil
}

// setupRuns is how many set-up-only processes a run measures; their median
// CPU time is setup_s. A run takes half of them before its main work and
// half after, so the median spans the run rather than one moment of a
// shared host whose speed drifts.
const setupRuns = 21

// setupSamples collects the set-up measurements of one run.
type setupSamples struct {
	cpu, wall []float64 // seconds
}

// take measures n set-up processes with one, which returns the wall time
// from exec to ready and the process's CPU time.
func (s *setupSamples) take(n int, one func() (wall, cpu time.Duration, err error)) error {
	for i := 0; i < n; i++ {
		wall, cpu, err := one()
		if err != nil {
			return err
		}
		s.wall = append(s.wall, wall.Seconds())
		s.cpu = append(s.cpu, cpu.Seconds())
	}
	return nil
}

func (s *setupSamples) String() string {
	return fmt.Sprintf("%d processes; CPU median %.4f s (min %.4f, max %.4f); exec to ready median %.4f s",
		len(s.cpu), median(s.cpu), minOf(s.cpu), maxOf(s.cpu), median(s.wall))
}

// hostProbe times a fixed CPU-bound task that shares no code with the
// repository. Its drift between runs shows how much of a change in the
// CPU-time metrics came from the host rather than the program.
func hostProbe() time.Duration {
	buf := make([]byte, 32<<20)
	for i := range buf { // fault the pages in before timing
		buf[i] = byte(i)
	}
	start := selfCPU()
	sha256.Sum256(buf)
	return selfCPU() - start
}

// zeroLayers returns every per-layer metric at 0, for a workload to
// overwrite the layers it enters.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}
