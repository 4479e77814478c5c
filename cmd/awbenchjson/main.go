// Command awbenchjson converts `go test -bench` text output on stdin into a
// stable JSON document on stdout, so benchmark results can be checked in
// (BENCH_serve.json) and diffed across runs and CI uploads without parsing
// the free-text format downstream.
//
//	go test -run '^$' -bench . -benchtime=1000x -count=5 ./internal/serve/ | awbenchjson
//
// Format v2: repeated lines from -count=N runs are aggregated per benchmark
// (keyed by name, procs suffix, and package) into one result carrying the
// repeat count and, for every metric, the minimum (the stable point estimate
// under scheduler noise) plus the min..max spread. The run environment block
// records goos, goarch, cpu, and GOMAXPROCS. The compare mode reads v2
// documents only.
//
// Compare mode gates CI on a checked-in baseline:
//
//	awbenchjson -compare old.json new.json -max-regress-pct 15 -max-allocs-regress 0
//
// Every benchmark in old must exist in new; ns/op may regress at most
// -max-regress-pct percent and allocs/op at most -max-allocs-regress
// allocations. Old and new values are printed side by side for every
// benchmark; the exit status is 1 if any gate fails.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metric is one aggregated measurement. Value is the minimum across -count
// repeats; Min/Max record the observed spread.
type metric struct {
	Value float64 `json:"value"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

type result struct {
	Name       string            `json:"name"`
	Pkg        string            `json:"pkg,omitempty"`
	Procs      int               `json:"procs,omitempty"`
	Count      int               `json:"count"`
	Iterations int64             `json:"iterations"`
	Metrics    map[string]metric `json:"metrics"`
}

type document struct {
	Format  string            `json:"format"`
	Env     map[string]string `json:"env,omitempty"`
	Results []result          `json:"results"`
}

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "-compare" {
		os.Exit(runCompare(args[1:]))
	}
	if len(args) > 0 {
		fmt.Fprintf(os.Stderr, "awbenchjson: unknown argument %q (convert mode reads stdin and takes no arguments)\n", args[0])
		os.Exit(2)
	}
	doc, err := convert(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "awbenchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "awbenchjson:", err)
		os.Exit(1)
	}
}

// convert parses `go test -bench` text into a v2 document, aggregating
// repeated lines (from -count=N) by benchmark identity.
func convert(in io.Reader) (document, error) {
	doc := document{Format: formatV2, Env: map[string]string{}, Results: []result{}}
	if gmp := os.Getenv("GOMAXPROCS"); gmp != "" {
		doc.Env["gomaxprocs"] = gmp
	}
	index := map[string]int{} // key -> position in doc.Results
	pkg := ""
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "pkg:"):
			// Tracked per-result: one stream may span several packages.
			_, v, _ := strings.Cut(line, ":")
			pkg = strings.TrimSpace(v)
		case strings.HasPrefix(line, "goos:"),
			strings.HasPrefix(line, "goarch:"),
			strings.HasPrefix(line, "cpu:"):
			k, v, _ := strings.Cut(line, ":")
			doc.Env[k] = strings.TrimSpace(v)
		case strings.HasPrefix(line, "Benchmark"):
			r, ok := parseBenchLine(line)
			if !ok {
				continue
			}
			r.Pkg = pkg
			key := r.Pkg + "\x00" + r.Name + "\x00" + strconv.Itoa(r.Procs)
			i, seen := index[key]
			if !seen {
				index[key] = len(doc.Results)
				doc.Results = append(doc.Results, r)
				continue
			}
			doc.Results[i] = merge(doc.Results[i], r)
		}
	}
	if err := sc.Err(); err != nil {
		return doc, err
	}
	if len(doc.Results) == 0 {
		return doc, fmt.Errorf("no benchmark result lines on stdin")
	}
	return doc, nil
}

// merge folds a repeat run into an aggregate: Value tracks the minimum,
// Min/Max the spread, Count the number of repeats. A metric missing from
// some repeats keeps the spread of the repeats that reported it.
func merge(agg, r result) result {
	agg.Count += r.Count
	if r.Iterations < agg.Iterations {
		agg.Iterations = r.Iterations
	}
	for unit, m := range r.Metrics {
		prev, ok := agg.Metrics[unit]
		if !ok {
			agg.Metrics[unit] = m
			continue
		}
		if m.Value < prev.Value {
			prev.Value = m.Value
		}
		if m.Min < prev.Min {
			prev.Min = m.Min
		}
		if m.Max > prev.Max {
			prev.Max = m.Max
		}
		agg.Metrics[unit] = prev
	}
	return agg
}

// parseBenchLine parses one result line, e.g.
//
//	BenchmarkServeMixedLoad-8   12000   95012 ns/op   1234 B/op   17 allocs/op
//
// Custom b.ReportMetric units ("64.00 kernels/op") parse like any other
// value/unit pair.
func parseBenchLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return result{}, false
	}
	r := result{Name: fields[0], Count: 1, Metrics: map[string]metric{}}
	// The -N procs suffix follows the LAST dash; benchmark names themselves
	// may contain dashes.
	if i := strings.LastIndexByte(fields[0], '-'); i > 0 {
		if p, err := strconv.Atoi(fields[0][i+1:]); err == nil {
			r.Name, r.Procs = fields[0][:i], p
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r.Iterations = iters
	// The remainder alternates value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		r.Metrics[fields[i+1]] = metric{Value: v, Min: v, Max: v}
	}
	return r, true
}

// runCompare implements `-compare old.json new.json [-max-regress-pct N]
// [-max-allocs-regress N]`. Flags are parsed by hand because the positional
// file arguments precede them.
func runCompare(args []string) int {
	var files []string
	maxPct, maxAllocs := 15.0, 0.0
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-max-regress-pct", "-max-allocs-regress":
			if i+1 >= len(args) {
				fmt.Fprintf(os.Stderr, "awbenchjson: %s needs a value\n", args[i])
				return 2
			}
			v, err := strconv.ParseFloat(args[i+1], 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "awbenchjson: %s: %v\n", args[i], err)
				return 2
			}
			if args[i] == "-max-regress-pct" {
				maxPct = v
			} else {
				maxAllocs = v
			}
			i++
		default:
			if strings.HasPrefix(args[i], "-") {
				fmt.Fprintf(os.Stderr, "awbenchjson: unknown compare flag %q\n", args[i])
				return 2
			}
			files = append(files, args[i])
		}
	}
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "usage: awbenchjson -compare old.json new.json [-max-regress-pct N] [-max-allocs-regress N]")
		return 2
	}
	oldDoc, err := loadDoc(files[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "awbenchjson:", err)
		return 1
	}
	newDoc, err := loadDoc(files[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "awbenchjson:", err)
		return 1
	}
	report, failures := compareDocs(oldDoc, newDoc, maxPct, maxAllocs)
	for _, l := range report {
		fmt.Println(l)
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "\nawbenchjson: %d benchmark gate failure(s):\n", len(failures))
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  FAIL:", f)
		}
		return 1
	}
	fmt.Printf("\nbench gate OK: %d benchmark(s) within -max-regress-pct %g, -max-allocs-regress %g\n",
		len(oldDoc.Results), maxPct, maxAllocs)
	return 0
}

// formatV2 is the only document format convert writes and compare reads.
const formatV2 = "accelwattch-bench-v2"

// loadDoc reads a v2 document. Any other format, v1 included, is refused
// before its metrics are decoded.
func loadDoc(path string) (document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return document{}, err
	}
	var head struct {
		Format string `json:"format"`
	}
	if err := json.Unmarshal(b, &head); err != nil {
		return document{}, fmt.Errorf("%s: %w", path, err)
	}
	if head.Format != formatV2 {
		return document{}, fmt.Errorf("%s: format %q, want %q", path, head.Format, formatV2)
	}
	var doc document
	if err := json.Unmarshal(b, &doc); err != nil {
		return document{}, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// compareDocs gates new against old: every old benchmark must be present in
// new, ns/op may regress at most maxPct percent, and allocs/op may grow by
// at most maxAllocs. Benchmarks are matched by name so a GOMAXPROCS or
// package move does not silently drop the gate. Returns a side-by-side
// report (old -> new for every shared metric of interest) and the failures.
func compareDocs(oldDoc, newDoc document, maxPct, maxAllocs float64) (report, failures []string) {
	newBy := map[string]result{}
	for _, r := range newDoc.Results {
		newBy[r.Name] = r
	}
	names := make([]string, 0, len(oldDoc.Results))
	oldBy := map[string]result{}
	for _, r := range oldDoc.Results {
		if _, dup := oldBy[r.Name]; !dup {
			names = append(names, r.Name)
		}
		oldBy[r.Name] = r
	}
	sort.Strings(names)
	for _, name := range names {
		o := oldBy[name]
		n, ok := newBy[name]
		if !ok {
			report = append(report, fmt.Sprintf("%-32s MISSING in new run", name))
			failures = append(failures, fmt.Sprintf("%s: present in baseline but missing in new run", name))
			continue
		}
		oNs, nNs := o.Metrics["ns/op"].Value, n.Metrics["ns/op"].Value
		pct := 0.0
		if oNs > 0 {
			pct = (nNs - oNs) / oNs * 100
		}
		report = append(report, fmt.Sprintf("%-32s ns/op %12.1f -> %12.1f  (%+.1f%%)", name, oNs, nNs, pct))
		if pct > maxPct {
			failures = append(failures, fmt.Sprintf("%s: ns/op regressed %.1f%% (%.1f -> %.1f), limit %g%%",
				name, pct, oNs, nNs, maxPct))
		}
		oA, oHas := o.Metrics["allocs/op"]
		nA, nHas := n.Metrics["allocs/op"]
		if oHas || nHas {
			delta := nA.Value - oA.Value
			report = append(report, fmt.Sprintf("%-32s allocs/op %8.0f -> %8.0f  (%+.0f)", "", oA.Value, nA.Value, delta))
			if delta > maxAllocs {
				failures = append(failures, fmt.Sprintf("%s: allocs/op grew by %.0f (%.0f -> %.0f), limit %g",
					name, delta, oA.Value, nA.Value, maxAllocs))
			}
		}
	}
	return report, failures
}
