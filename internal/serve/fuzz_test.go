package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzEstimateRequest drives the wire decoder with arbitrary bytes. For any
// input the decoder must not panic; for accepted inputs the request must be
// fully resolved (Activity succeeds), its cache key must be stable, and a
// re-encoded copy must decode to the same computation (same cache key).
func FuzzEstimateRequest(f *testing.F) {
	f.Add([]byte(`{"variant":"SASS_SIM","cycles":1}`))
	f.Add([]byte(`{"name":"k","variant":"HW","cycles":1e6,"clock_mhz":1200,"voltage":1.0,"active_sms":80,"avg_lanes":32,"mix":"INT_FP","temperature_c":65,"counts":{"alu":5e8,"regfile":2e9}}`))
	f.Add([]byte(`{"variant":"PTX_SIM","cycles":2.5,"counts":{"dram_mc":1}}`))
	f.Add([]byte(`{"variant":"HYBRID","cycles":1,"counts":{"static":3}}`))
	f.Add([]byte(`{"variant":"HW","cycles":1}{"trailing":true}`))
	f.Add([]byte(`{"variant":"HW","cycles":-1}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeEstimateRequest(data)
		if err != nil {
			return
		}
		a, err := req.Activity()
		if err != nil {
			t.Fatalf("accepted request has unresolvable activity: %v", err)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("accepted request fails activity validation: %v", err)
		}
		k1, k2 := req.CacheKey(), req.CacheKey()
		if k1 != k2 {
			t.Fatalf("cache key unstable: %q vs %q", k1, k2)
		}
		// Round trip: re-encode and re-decode must key identically.
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encoding accepted request: %v", err)
		}
		req2, err := DecodeEstimateRequest(enc)
		if err != nil {
			t.Fatalf("re-encoded request rejected: %v\nbody: %s", err, enc)
		}
		if req2.CacheKey() != k1 {
			t.Fatalf("round trip changed the cache key:\n was %q\n now %q", k1, req2.CacheKey())
		}
	})
}

// FuzzCacheKey drives the canonicalizer with arbitrary field values
// (bypassing the wire decoder, so non-finite and unknown-name inputs are in
// scope). The key must be deterministic, prefix-unambiguous between
// estimate and sweep forms, and must separate requests that differ in any
// computation-relevant field.
func FuzzCacheKey(f *testing.F) {
	f.Add("SASS_SIM", "INT_FP", 1e6, 1200.0, 1.0, 80.0, 32.0, 65.0, "alu", 5e8)
	f.Add("HW", "", 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, "dram_mc", 1.0)
	f.Add("PTX_SIM", "LIGHT", 2.5, 800.0, 0.9, 40.0, 16.0, 30.0, "unknown_counter", 3.0)
	f.Add("HYBRID", "INT", math.MaxFloat64, 5e-324, 1e308, 1.5, 17.0, -40.0, "static", 2.0)
	f.Fuzz(func(t *testing.T, variant, mix string, cycles, clock, volt, sms, lanes, temp float64, cname string, cval float64) {
		req := &EstimateRequest{
			Variant: variant, Mix: mix, Cycles: cycles, ClockMHz: clock,
			Voltage: volt, ActiveSMs: sms, AvgLanes: lanes, TemperatureC: temp,
			Counts: map[string]float64{cname: cval},
		}
		k1 := req.CacheKey()
		if k1 != req.CacheKey() {
			t.Fatal("cache key unstable")
		}
		// Cloning the request (fresh map) must key identically.
		clone := *req
		clone.Counts = map[string]float64{cname: cval}
		if clone.CacheKey() != k1 {
			t.Fatal("clone keyed differently")
		}
		// The ledger label must never influence the key.
		clone.Name = "other"
		if clone.CacheKey() != k1 {
			t.Fatal("Name leaked into the key")
		}
		// Perturbing each finite numeric field must change the key (floats
		// are rendered exactly, so any ULP difference must separate).
		perturb := []struct {
			name string
			mut  func(*EstimateRequest)
			old  float64
		}{
			{"cycles", func(r *EstimateRequest) { r.Cycles = bump(r.Cycles) }, cycles},
			{"clock", func(r *EstimateRequest) { r.ClockMHz = bump(r.ClockMHz) }, clock},
			{"voltage", func(r *EstimateRequest) { r.Voltage = bump(r.Voltage) }, volt},
			{"sms", func(r *EstimateRequest) { r.ActiveSMs = bump(r.ActiveSMs) }, sms},
			{"lanes", func(r *EstimateRequest) { r.AvgLanes = bump(r.AvgLanes) }, lanes},
			{"temp", func(r *EstimateRequest) { r.TemperatureC = bump(r.TemperatureC) }, temp},
		}
		for _, p := range perturb {
			if math.IsNaN(p.old) || bump(p.old) == p.old {
				continue // NaN keys are never produced by validated requests
			}
			m := *req
			m.Counts = req.Counts
			p.mut(&m)
			if m.CacheKey() == k1 {
				t.Fatalf("perturbing %s did not change the key", p.name)
			}
		}
		// A sweep over the same activity must never collide with the
		// estimate key.
		sw := &SweepRequest{EstimateRequest: *req, MinMHz: 1, MaxMHz: 2, StepMHz: 1}
		if sw.CacheKey() == k1 {
			t.Fatal("sweep key collided with estimate key")
		}
	})
}

// bump returns the next float after v (toward +Inf), i.e. the smallest
// possible perturbation.
func bump(v float64) float64 {
	return math.Nextafter(v, math.Inf(1))
}

// FuzzAdminPut drives PUT /models/{name} with arbitrary bodies: a saved
// model, a model wrapped with all_variants, or a derive spec. Entry
// validation is the only model check between such a body and
// Model.EstimateInto, so an accepted body must yield an entry that answers
// an estimate under every variant it serves. The PUT must answer 200, 400,
// 404, 409 or 413 (never a 5xx or a panic); after a 200 each served
// variant's /estimate answers 200, or 400 when the model's watts overflow
// what JSON can carry. One server serves every input, and each input's
// entry is retired before the next, so a derive spec naming "fz" always
// finds it retired. The seeds are compact saved models: the fuzzer spends
// time minimizing every input that finds new coverage, quadratic in its
// length.
func FuzzAdminPut(f *testing.F) {
	saved := func(fields string) []byte {
		return fmt.Appendf(nil, `{"format":"accelwattch-model-v1","arch":"volta-gv100",%s,"base_energy_pj":{"alu":1.5,"regfile":0.8},"scale":{"alu":0.1,"regfile":0.1},"divergence":{"INT_FP":{"first_lane_w":30,"add_lane_w":0.7}}}`, fields)
	}
	model := saved(`"ref_sms":80,"const_w":32.5,"idle_sm_w":0.1`)
	f.Add(model)
	f.Add(fmt.Appendf(nil, `{"model":%s,"all_variants":true}`, saved(`"ref_sms":80,"const_w":32.5,"idle_sm_w":0.1,"tuned_variant":"HW"`)))
	f.Add([]byte(`{"derive":{"from":"volta-base","arch":"pascal","const_mult":1.2}}`))
	f.Add(saved(`"ref_sms":80,"const_w":32.5,"idle_sm_w":0.1,"tuned_variant":"HW","temp_coeff":0.02`))
	f.Add(saved(`"ref_sms":-80,"const_w":32.5,"idle_sm_w":0.1`))
	f.Add(saved(`"ref_sms":80,"const_w":-1,"idle_sm_w":0.1`))
	f.Add(saved(`"ref_sms":80,"const_w":1e308,"idle_sm_w":1e308`))
	f.Add([]byte(`{"format":"accelwattch-model-v1","arch":"volta-gv100"}`))
	f.Add([]byte(`{"derive":{"from":"volta-base"}}`))
	f.Add([]byte(`{"derive":{"from":"turing-derived","arch":"volta","const_mult":-3}}`))
	f.Add([]byte(`{"derive":{"from":"fz","arch":"turing"}}`))
	f.Add([]byte(`{"model":{},"derive":{}}`))
	f.Add([]byte(`{}`))

	s, err := New(Config{Zoo: testZoo(f)})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	mux := s.Mux()
	f.Fuzz(func(t *testing.T, body []byte) {
		defer func() {
			if s.Entry("fz") != nil {
				if err := s.Retire("fz"); err != nil {
					t.Error(err)
				}
			}
		}()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/models/fz", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusNotFound, http.StatusConflict, http.StatusRequestEntityTooLarge:
			return
		default:
			t.Fatalf("PUT answered %d: %s", rec.Code, rec.Body)
		}
		e := s.Entry("fz")
		if e == nil {
			t.Fatal("PUT answered 200 but fz is not installed")
		}
		for _, v := range e.Variants() {
			est := fmt.Appendf(nil, `{"model":"fz","variant":%q,"cycles":1000000,"active_sms":40,"avg_lanes":16,"mix":"INT_FP","temperature_c":70,"counts":{"alu":1e9,"regfile":2e9,"dram_mc":3e7}}`, v)
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/estimate", bytes.NewReader(est)))
			if rec.Code == http.StatusOK ||
				rec.Code == http.StatusBadRequest && strings.Contains(rec.Body.String(), "json: unsupported value") {
				continue
			}
			t.Fatalf("estimate on installed fz (%v) answered %d: %s", v, rec.Code, rec.Body)
		}
	})
}
