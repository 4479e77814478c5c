package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	cases := []struct {
		name string
		line string
		ok   bool
		want result
	}{
		{
			name: "standard benchmem line",
			line: "BenchmarkServeMixedLoad-8   12000   95012 ns/op   1234 B/op   17 allocs/op",
			ok:   true,
			want: result{Name: "BenchmarkServeMixedLoad", Procs: 8, Iterations: 12000, Count: 1,
				Metrics: map[string]metric{
					"ns/op":     {95012, 95012, 95012},
					"B/op":      {1234, 1234, 1234},
					"allocs/op": {17, 17, 17},
				}},
		},
		{
			name: "no procs suffix under GOMAXPROCS=1",
			line: "BenchmarkServeMixedLoad \t 11284\t    100450 ns/op",
			ok:   true,
			want: result{Name: "BenchmarkServeMixedLoad", Iterations: 11284, Count: 1,
				Metrics: map[string]metric{"ns/op": {100450, 100450, 100450}}},
		},
		{
			name: "custom ReportMetric unit alongside benchmem",
			line: "BenchmarkEstimateBatch-4   1000   3346 ns/op   64.00 kernels/op   0 B/op   0 allocs/op",
			ok:   true,
			want: result{Name: "BenchmarkEstimateBatch", Procs: 4, Iterations: 1000, Count: 1,
				Metrics: map[string]metric{
					"ns/op":      {3346, 3346, 3346},
					"kernels/op": {64, 64, 64},
					"B/op":       {0, 0, 0},
					"allocs/op":  {0, 0, 0},
				}},
		},
		{
			name: "sub-benchmark with dashes keeps its path",
			line: "BenchmarkX/case-with-dash-4   10   5 ns/op",
			ok:   true,
			want: result{Name: "BenchmarkX/case-with-dash", Procs: 4, Iterations: 10, Count: 1,
				Metrics: map[string]metric{"ns/op": {5, 5, 5}}},
		},
		{name: "malformed iteration count", line: "BenchmarkBroken notanumber 5 ns/op", ok: false},
		{name: "bare name", line: "Benchmark", ok: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, ok := parseBenchLine(tc.line)
			if ok != tc.ok {
				t.Fatalf("ok=%v, want %v (%+v)", ok, tc.ok, r)
			}
			if !ok {
				return
			}
			if r.Name != tc.want.Name || r.Procs != tc.want.Procs ||
				r.Iterations != tc.want.Iterations || r.Count != tc.want.Count {
				t.Fatalf("parsed %+v, want %+v", r, tc.want)
			}
			if len(r.Metrics) != len(tc.want.Metrics) {
				t.Fatalf("metrics %v, want %v", r.Metrics, tc.want.Metrics)
			}
			for unit, want := range tc.want.Metrics {
				if r.Metrics[unit] != want {
					t.Fatalf("metric %s = %v, want %v", unit, r.Metrics[unit], want)
				}
			}
		})
	}
}

// TestConvertAggregatesRepeats: -count=N emits one line per repeat; convert
// must fold them into one result with Value=min and the min..max spread,
// keyed by (pkg, name, procs).
func TestConvertAggregatesRepeats(t *testing.T) {
	in := strings.NewReader(`goos: linux
goarch: amd64
pkg: accelwattch/internal/core
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEstimateBatch-4   1000   3400 ns/op   64.00 kernels/op   0 B/op   0 allocs/op
BenchmarkEstimateBatch-4   1000   3300 ns/op   64.00 kernels/op   0 B/op   0 allocs/op
BenchmarkEstimateBatch-4   1000   3500 ns/op   64.00 kernels/op   0 B/op   0 allocs/op
PASS
pkg: accelwattch/internal/serve
BenchmarkServeMixedLoad-4   1000   95000 ns/op   2048 B/op   17 allocs/op
BenchmarkServeMixedLoad-4   1000   99000 ns/op   2100 B/op   17 allocs/op
PASS
`)
	doc, err := convert(in)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Format != "accelwattch-bench-v2" {
		t.Fatalf("format %q", doc.Format)
	}
	if len(doc.Results) != 2 {
		t.Fatalf("got %d results, want 2: %+v", len(doc.Results), doc.Results)
	}
	core := doc.Results[0]
	if core.Name != "BenchmarkEstimateBatch" || core.Pkg != "accelwattch/internal/core" ||
		core.Procs != 4 || core.Count != 3 {
		t.Fatalf("core result %+v", core)
	}
	if m := core.Metrics["ns/op"]; m.Value != 3300 || m.Min != 3300 || m.Max != 3500 {
		t.Fatalf("ns/op aggregate %+v", m)
	}
	if m := core.Metrics["kernels/op"]; m != (metric{64, 64, 64}) {
		t.Fatalf("custom unit aggregate %+v", m)
	}
	srv := doc.Results[1]
	if srv.Pkg != "accelwattch/internal/serve" || srv.Count != 2 {
		t.Fatalf("serve result %+v", srv)
	}
	if m := srv.Metrics["B/op"]; m.Value != 2048 || m.Max != 2100 {
		t.Fatalf("B/op aggregate %+v", m)
	}
	if doc.Env["cpu"] == "" || doc.Env["goos"] != "linux" {
		t.Fatalf("env %+v", doc.Env)
	}
}

func TestConvertRejectsEmptyInput(t *testing.T) {
	if _, err := convert(strings.NewReader("PASS\nok pkg 1s\n")); err == nil {
		t.Fatal("input without benchmark lines accepted")
	}
}

func benchDoc(ns, allocs float64) document {
	return document{
		Format: "accelwattch-bench-v2",
		Results: []result{{
			Name: "BenchmarkEstimateBatch", Count: 5, Iterations: 1000,
			Metrics: map[string]metric{
				"ns/op":     {ns, ns, ns * 1.05},
				"allocs/op": {allocs, allocs, allocs},
			},
		}},
	}
}

func TestCompareDocs(t *testing.T) {
	t.Run("identical passes", func(t *testing.T) {
		report, failures := compareDocs(benchDoc(3300, 0), benchDoc(3300, 0), 15, 0)
		if len(failures) != 0 {
			t.Fatalf("failures on identical docs: %v", failures)
		}
		if len(report) == 0 || !strings.Contains(report[0], "BenchmarkEstimateBatch") {
			t.Fatalf("report %v", report)
		}
	})
	t.Run("within limit passes", func(t *testing.T) {
		_, failures := compareDocs(benchDoc(3300, 0), benchDoc(3700, 0), 15, 0)
		if len(failures) != 0 {
			t.Fatalf("12%% regression failed the 15%% gate: %v", failures)
		}
	})
	t.Run("regression beyond limit fails", func(t *testing.T) {
		report, failures := compareDocs(benchDoc(3300, 0), benchDoc(3900, 0), 15, 0)
		if len(failures) != 1 || !strings.Contains(failures[0], "ns/op regressed") {
			t.Fatalf("18%% regression not caught: %v", failures)
		}
		// Side-by-side old -> new values appear in the report.
		if !strings.Contains(report[0], "3300") || !strings.Contains(report[0], "3900") {
			t.Fatalf("report lacks side-by-side values: %v", report)
		}
	})
	t.Run("speedup passes", func(t *testing.T) {
		_, failures := compareDocs(benchDoc(3300, 0), benchDoc(2000, 0), 15, 0)
		if len(failures) != 0 {
			t.Fatalf("speedup flagged: %v", failures)
		}
	})
	t.Run("single new allocation fails", func(t *testing.T) {
		_, failures := compareDocs(benchDoc(3300, 0), benchDoc(3300, 1), 15, 0)
		if len(failures) != 1 || !strings.Contains(failures[0], "allocs/op grew") {
			t.Fatalf("alloc growth not caught: %v", failures)
		}
	})
	t.Run("alloc headroom respected", func(t *testing.T) {
		_, failures := compareDocs(benchDoc(3300, 10), benchDoc(3300, 12), 15, 2)
		if len(failures) != 0 {
			t.Fatalf("within alloc headroom yet failed: %v", failures)
		}
	})
	t.Run("missing benchmark fails", func(t *testing.T) {
		newDoc := benchDoc(3300, 0)
		newDoc.Results[0].Name = "BenchmarkRenamed"
		_, failures := compareDocs(benchDoc(3300, 0), newDoc, 15, 0)
		if len(failures) != 1 || !strings.Contains(failures[0], "missing") {
			t.Fatalf("missing benchmark not caught: %v", failures)
		}
	})
}

// TestLoadDocFormats: compare reads v2 documents only. A v1 baseline (bare
// metric numbers) or any other format is refused with the file and the
// format named, before its metrics are decoded.
func TestLoadDocFormats(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	v2 := write("v2.json", `{"format":"accelwattch-bench-v2","results":[{"name":"BenchmarkX","count":5,"iterations":1000,"metrics":{"ns/op":{"value":3300,"min":3300,"max":3500}}}]}`)
	doc, err := loadDoc(v2)
	if err != nil {
		t.Fatalf("v2 document refused: %v", err)
	}
	if got := doc.Results[0].Metrics["ns/op"]; got != (metric{3300, 3300, 3500}) {
		t.Fatalf("v2 metric read as %+v", got)
	}
	for name, body := range map[string]string{
		"v1.json":      `{"format":"accelwattch-bench-v1","results":[{"name":"BenchmarkX","iterations":11284,"metrics":{"ns/op":100450}}]}`,
		"v3.json":      `{"format":"accelwattch-bench-v3","results":[]}`,
		"foreign.json": `{"format":"something-else","results":[]}`,
		"none.json":    `{"results":[]}`,
	} {
		path := write(name, body)
		_, err := loadDoc(path)
		if err == nil {
			t.Errorf("%s accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "accelwattch-bench-v2") {
			t.Errorf("%s: error %q names neither the file nor the wanted format", name, err)
		}
	}
}
