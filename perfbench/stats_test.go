package main

import (
	"bytes"
	"math"
	"testing"
	"time"

	"accelwattch/internal/obs"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := make([]int64, 100)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p            float64
		want, beyond int
	}{
		{0.50, 50, 50},
		{0.99, 99, 1},
		{1.00, 100, 0},
		{0.001, 1, 99},
	} {
		got, beyond := percentile(sorted, c.p)
		if got != int64(c.want) || beyond != c.beyond {
			t.Errorf("p%g of 1..100 = %d (%d beyond), want %d (%d beyond)", c.p*100, got, beyond, c.want, c.beyond)
		}
	}
	if v, beyond := percentile([]int64{7}, 0.99); v != 7 || beyond != 0 {
		t.Errorf("p99 of one sample = %d (%d beyond), want 7 (0)", v, beyond)
	}
	if v, beyond := percentile(nil, 0.5); v != 0 || beyond != 0 {
		t.Errorf("percentile of no samples = %d (%d), want 0 (0)", v, beyond)
	}
	// The sample count beyond p99 is what says whether p99 is supported:
	// 1000 samples leave 10 beyond it.
	big := make([]int64, 1000)
	if _, beyond := percentile(big, 0.99); beyond != 10 {
		t.Errorf("1000 samples leave %d beyond p99, want 10", beyond)
	}
}

func TestMedianAndMean(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3,1,2 = %v", m)
	}
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Errorf("median of 4,1,3,2 = %v", m)
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	if m := mean([]int64{1, 2, 3, 6}); m != 3 {
		t.Errorf("mean = %v, want 3", m)
	}
}

func TestSummariseSlices(t *testing.T) {
	// 2.5 s window: two whole one-second slices with 10 and 30 requests;
	// the half slice at the end is dropped.
	p := &phaseStats{ok: 45, elapsed: 2500 * time.Millisecond, lat: []int64{3000, 1000, 2000}}
	for i := 0; i < 10; i++ {
		p.okEnds = append(p.okEnds, int64(500*time.Millisecond))
	}
	for i := 0; i < 30; i++ {
		p.okEnds = append(p.okEnds, int64(1500*time.Millisecond))
	}
	for i := 0; i < 5; i++ {
		p.okEnds = append(p.okEnds, int64(2200*time.Millisecond))
	}
	w := summarise(p)
	if len(w.slices) != 2 || w.slices[0] != 10 || w.slices[1] != 30 {
		t.Fatalf("slices = %v, want [10 30]", w.slices)
	}
	if w.sliceRate != 20 || w.rate != 18 {
		t.Errorf("slice rate %v, window rate %v; want 20 and 18", w.sliceRate, w.rate)
	}
	if w.p50 != 2 || w.p99 != 3 || w.mean != 2 {
		t.Errorf("latency p50 %v p99 %v mean %v us; want 2, 3, 2", w.p50, w.p99, w.mean)
	}
}

const exposition = `# HELP aw_serve_cache_events_total Response-cache events.
# TYPE aw_serve_cache_events_total counter
aw_serve_cache_events_total{model="volta-saved",result="hit"} 10
aw_serve_cache_events_total{model="volta-saved",result="miss"} 4
aw_serve_cache_events_total{model="pascal \"derived\"",result="hit"} 2.5e+01
aw_ledger_dropped_total 0
aw_serve_request_seconds_bucket{route="estimate",le="+Inf"} 14
aw_serve_request_seconds_sum{route="estimate"} 0.0014
aw_serve_request_seconds_count{route="estimate"} 14
`

func TestParsePromAndDelta(t *testing.T) {
	before, err := parseProm(exposition)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 7 {
		t.Fatalf("parsed %d samples, want 7", len(before))
	}
	if got := before.sum("aw_serve_cache_events_total", map[string]string{"result": "hit"}); got != 35 {
		t.Errorf("hits over every model = %v, want 35", got)
	}
	if got := before.sum("aw_serve_cache_events_total", map[string]string{"model": `pascal "derived"`}); got != 25 {
		t.Errorf("escaped label value: %v, want 25", got)
	}
	if got := before.sum("aw_serve_request_seconds_bucket", map[string]string{"le": "+Inf"}); got != 14 {
		t.Errorf("+Inf bucket = %v, want 14", got)
	}
	after, err := parseProm(exposition + `aw_serve_cache_events_total{model="turing-derived",result="hit"} 5` + "\n")
	if err != nil {
		t.Fatal(err)
	}
	after[0].value = 110 // volta hits grew by 100
	if d := promDelta(before, after, "aw_serve_cache_events_total", map[string]string{"result": "hit"}); d != 105 {
		t.Errorf("hit delta = %v, want 105 (100 on a known series, 5 on a new one)", d)
	}
	if d := promDelta(before, after, "aw_serve_cache_events_total", map[string]string{"result": "miss"}); d != 0 {
		t.Errorf("miss delta = %v, want 0", d)
	}
	for _, bad := range []string{`x{a="1"`, `{a="1"} 2`, `x{a=1} 2`, `x notanumber`} {
		if _, err := parseProm(bad); err == nil {
			t.Errorf("parseProm(%q) accepted malformed input", bad)
		}
	}
}

// TestParsePromReadsTheObsRegistry runs the parser over the exposition the
// obs registry itself writes — the format awserve's /metrics serves — and
// takes the before/after delta the serve workloads use.
func TestParsePromReadsTheObsRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	events := reg.CounterVec("aw_serve_cache_events_total", "Cache events.", "model", "result")
	lat := reg.HistogramVec("aw_serve_request_seconds", "Latency.", obs.ExpBuckets(1e-5, 4, 12), "route")
	read := func() promText {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		p, err := parseProm(buf.String())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	events.With("volta-saved", "hit").Add(3)
	lat.With("estimate").Observe(0.001)
	before := read()
	events.With("volta-saved", "hit").Add(4)
	events.With("turing-derived", "eviction").Inc()
	lat.With("estimate").Observe(0.003)
	lat.With("sweep").Observe(0.002)
	after := read()
	if d := promDelta(before, after, "aw_serve_cache_events_total", map[string]string{"result": "hit"}); d != 4 {
		t.Errorf("hit delta %v, want 4", d)
	}
	if d := promDelta(before, after, "aw_serve_cache_events_total", map[string]string{"result": "eviction"}); d != 1 {
		t.Errorf("eviction delta %v, want 1", d)
	}
	if d := promDelta(before, after, "aw_serve_request_seconds_count", nil); d != 2 {
		t.Errorf("request count delta %v, want 2", d)
	}
	if d := promDelta(before, after, "aw_serve_request_seconds_sum", map[string]string{"route": "estimate"}); math.Abs(d-0.003) > 1e-12 {
		t.Errorf("estimate latency-sum delta %v, want 0.003", d)
	}
}
