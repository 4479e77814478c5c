package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"time"

	"accelwattch/internal/cli"
	"accelwattch/internal/core"
	"accelwattch/internal/serve"
	"accelwattch/internal/tune"
	"accelwattch/internal/zoo"
)

// replayStats is the in-process, per-layer account of a serve workload.
type replayStats struct {
	hits                         bool    // the timed requests were cache hits
	handler                      []int64 // ns per Mux().ServeHTTP call, ascending
	decode, key, compute, encode float64 // mean microseconds per request
	allocsPerReq, bytesPerReq    float64
	gcCPU                        float64
	gcCycles                     uint64
	clockReadNS                  float64
	checked                      int
	problems                     []string
}

// replay serves the workload's seeded stream in process, through the
// public calls awserve makes, against a serve.Server built with awserve's
// defaults and a capped ledger: the same warm-up, then n timed requests of
// the window stream through Server.Mux().ServeHTTP on a recorder, then the
// same n requests again through each layer's entry point on its own.
func replay(set *zoo.Set, shape serveShape, g *generator, n int, hot bool) (*replayStats, error) {
	cli.StartCapped("perfbench", "replay", "", "", ledgerCap)
	srv, err := serve.New(serve.Config{
		Zoo:       set,
		Workers:   runtime.GOMAXPROCS(0),
		QueueSize: serve.DefaultQueueSize,
		MaxBatch:  serve.DefaultMaxBatch,
		CacheSize: lruCap,
		Deadline:  serve.DefaultDeadline,
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	mux := srv.Mux()
	rs := &replayStats{hits: hot}
	problem := func(format string, args ...any) {
		if len(rs.problems) < 10 {
			rs.problems = append(rs.problems, fmt.Sprintf(format, args...))
		}
	}
	for i := uint64(0); i < shape.warm; i++ {
		r := shape.req(i)
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body)))
		if rr.Code != http.StatusOK {
			problem("warm-up request %d answered %d", i, rr.Code)
		}
	}

	reqs := make([]request, n)
	hreqs := make([]*http.Request, n)
	recs := make([]*httptest.ResponseRecorder, n)
	for j := range reqs {
		reqs[j] = shape.req(shape.warm + uint64(j))
		hreqs[j] = httptest.NewRequest(http.MethodPost, reqs[j].path, bytes.NewReader(reqs[j].body))
		recs[j] = httptest.NewRecorder()
	}
	rs.handler = make([]int64, n)
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rt0 := readRuntime()
	for j := range reqs {
		t := time.Now()
		mux.ServeHTTP(recs[j], hreqs[j])
		rs.handler[j] = int64(time.Since(t))
	}
	rt1 := readRuntime()
	runtime.ReadMemStats(&ms1)
	rs.allocsPerReq = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	rs.bytesPerReq = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n)
	rs.gcCPU, rs.gcCycles = rt1.gcCPU-rt0.gcCPU, rt1.gcCycles-rt0.gcCycles
	for j, r := range reqs {
		if recs[j].Code != http.StatusOK {
			problem("%s request %d answered %d", r.path, shape.warm+uint64(j), recs[j].Code)
			continue
		}
		if g.sampled(shape.warm + uint64(j)) {
			rs.checked++
			if want, err := expected(r); err != nil || !bytes.Equal(recs[j].Body.Bytes(), want) {
				problem("%s request %d: response differs from the single-shot reference", r.path, shape.warm+uint64(j))
			}
		}
	}
	slices.Sort(rs.handler)

	if err := layerPass(rs, set, reqs, shape.warm, g); err != nil {
		return nil, err
	}
	rs.clockReadNS = clockReadCost()
	return rs, nil
}

// layerPass times each layer's public entry point on its own over the same
// requests: decode, cache key, compute (activity or ladder plus the batch
// estimator) and encode (json.Marshal of the response type). Its encoded
// bodies are checked against the single-shot reference too.
func layerPass(rs *replayStats, set *zoo.Set, reqs []request, first uint64, g *generator) error {
	est := map[*zoo.Entry]*[tune.NumVariants]*core.BatchEstimator{}
	for _, e := range set.Entries {
		var bes [tune.NumVariants]*core.BatchEstimator
		for _, v := range e.Variants() {
			be, err := core.NewBatchEstimator(e.Model(v))
			if err != nil {
				return err
			}
			bes[v] = be
		}
		est[e] = &bes
	}
	var decode, key, compute, encode time.Duration
	for j, r := range reqs {
		be := est[r.entry][r.variant]
		var body []byte
		var err error
		if r.path == "/sweep" {
			t0 := time.Now()
			req, derr := serve.DecodeSweepRequest(r.body)
			t1 := time.Now()
			if derr != nil {
				return derr
			}
			_ = req.CacheKey()
			t2 := time.Now()
			a, aerr := req.Activity()
			clocks := req.Ladder()
			totals := make([]float64, len(clocks))
			if aerr == nil {
				aerr = be.SweepLadderInto(&a, clocks, totals)
			}
			t3 := time.Now()
			if aerr != nil {
				return aerr
			}
			resp := serve.SweepResponse{Variant: req.Variant, Points: make([]serve.SweepPoint, len(clocks))}
			for k, mhz := range clocks {
				resp.Points[k] = serve.SweepPoint{ClockMHz: mhz, PowerW: totals[k]}
			}
			body, err = json.Marshal(&resp)
			t4 := time.Now()
			decode, key, compute, encode = decode+t1.Sub(t0), key+t2.Sub(t1), compute+t3.Sub(t2), encode+t4.Sub(t3)
		} else {
			t0 := time.Now()
			req, derr := serve.DecodeEstimateRequest(r.body)
			t1 := time.Now()
			if derr != nil {
				return derr
			}
			_ = req.CacheKey()
			t2 := time.Now()
			var bd core.Breakdown
			a, aerr := req.Activity()
			if aerr == nil {
				aerr = be.EstimateInto(&a, &bd)
			}
			t3 := time.Now()
			if aerr != nil {
				return aerr
			}
			resp := serve.EstimateResponse{Variant: req.Variant, PowerW: bd.Total(), Breakdown: bd.Map()}
			body, err = json.Marshal(&resp)
			t4 := time.Now()
			decode, key, compute, encode = decode+t1.Sub(t0), key+t2.Sub(t1), compute+t3.Sub(t2), encode+t4.Sub(t3)
		}
		if err != nil {
			return err
		}
		if g.sampled(first + uint64(j)) {
			if want, werr := expected(r); werr != nil || !bytes.Equal(body, want) {
				rs.problems = append(rs.problems, fmt.Sprintf("layer pass: %s request %d encodes differently from the reference", r.path, first+uint64(j)))
			}
		}
	}
	per := func(d time.Duration) float64 { return d.Seconds() * 1e6 / float64(len(reqs)) }
	rs.decode, rs.key, rs.compute, rs.encode = per(decode), per(key), per(compute), per(encode)
	return nil
}

// clockReadCost measures one time.Now call, the unit of tracing overhead.
func clockReadCost() float64 {
	const n = 200000
	start := time.Now()
	var t time.Time
	for i := 0; i < n; i++ {
		t = time.Now()
	}
	return float64(t.Sub(start)) / n
}
