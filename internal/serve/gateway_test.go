package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"accelwattch/internal/config"
	"accelwattch/internal/tune"
	"accelwattch/internal/zoo"
)

// testZoo builds the Section 7.1 registry shape the gateway exists for:
// a Volta base entry plus Pascal and Turing entries derived from it.
func testZoo(t testing.TB) *zoo.Set {
	t.Helper()
	base, err := zoo.Uniform("volta-base", testModel(), "test")
	if err != nil {
		t.Fatal(err)
	}
	pd, err := zoo.Derive("pascal-derived", base, config.Pascal(), 0)
	if err != nil {
		t.Fatal(err)
	}
	td, err := zoo.Derive("turing-derived", base, config.Turing(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return &zoo.Set{Default: "volta-base", Entries: []*zoo.Entry{base, pd, td}}
}

func newZooServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Zoo == nil {
		cfg.Zoo = testZoo(t)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Mux())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// routedBody is estBody plus routing fields.
func routedBody(i int, route string) []byte {
	return fmt.Appendf(nil,
		`{%s"name":"r%d","variant":"SASS_SIM","cycles":1000000,"active_sms":%d,"avg_lanes":%d,"mix":"INT_FP","counts":{"alu":%d,"regfile":2000000000}}`,
		route, i, 40+i%40, 1+i%32, 500000000+i)
}

func TestGatewayRouting(t *testing.T) {
	s, ts := newZooServer(t, Config{})

	// Reference bytes per entry, from the single-shot path on that entry's
	// own model. The routed response must be byte-identical — routing
	// fields never leak into the response.
	refFor := func(entry string, body []byte) []byte {
		t.Helper()
		m := s.Entry(entry).Model(tune.SASSSIM)
		want, err := EstimateOnce(m, body)
		if err != nil {
			t.Fatalf("reference on %s: %v", entry, err)
		}
		return want
	}

	cases := []struct {
		name  string
		route string // JSON fragment injected at the head of the body
		entry string // entry whose model must have answered
	}{
		{"default", ``, "volta-base"},
		{"by model", `"model":"pascal-derived",`, "pascal-derived"},
		{"by arch family", `"arch":"pascal",`, "pascal-derived"},
		{"by full arch name", `"arch":"turing-rtx2060s",`, "turing-derived"},
		{"model with matching arch", `"model":"pascal-derived","arch":"pascal",`, "pascal-derived"},
		{"default by arch", `"arch":"volta",`, "volta-base"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := routedBody(1, tc.route)
			code, got := post(t, ts, "/estimate", body)
			if code != http.StatusOK {
				t.Fatalf("status %d: %s", code, got)
			}
			if want := refFor(tc.entry, body); !bytes.Equal(got, want) {
				t.Fatalf("routed response differs from %s single-shot:\n got %s\nwant %s", tc.entry, got, want)
			}
		})
	}

	// The three entries must not answer identically — Pascal scales
	// dynamic energies, Turing scales constant power.
	body := routedBody(2, ``)
	va := refFor("volta-base", body)
	pa := refFor("pascal-derived", body)
	tu := refFor("turing-derived", body)
	if bytes.Equal(va, pa) || bytes.Equal(va, tu) || bytes.Equal(pa, tu) {
		t.Fatal("derived entries answered identically to the base; the transform did nothing")
	}

	errCases := []struct {
		name  string
		route string
		code  int
		frag  string
	}{
		{"unknown model", `"model":"nope",`, 404, "unknown model"},
		{"unknown arch", `"arch":"ampere",`, 404, "no model serves"},
		{"cross-check mismatch", `"model":"pascal-derived","arch":"turing",`, 400, "serves arch"},
	}
	for _, tc := range errCases {
		t.Run(tc.name, func(t *testing.T) {
			code, resp := post(t, ts, "/estimate", routedBody(3, tc.route))
			if code != tc.code {
				t.Fatalf("status %d, want %d: %s", code, tc.code, resp)
			}
			if !strings.Contains(string(resp), tc.frag) {
				t.Fatalf("error %s does not mention %q", resp, tc.frag)
			}
		})
	}

	// Sweeps route identically.
	sb := fmt.Appendf(nil, `{"arch":"pascal","name":"sw","variant":"HW","cycles":1000000,"active_sms":80,"avg_lanes":32,"counts":{"alu":100000000},"min_mhz":800,"max_mhz":1400,"step_mhz":100}`)
	code, got := post(t, ts, "/sweep", sb)
	if code != http.StatusOK {
		t.Fatalf("sweep status %d: %s", code, got)
	}
	want, err := SweepOnce(s.Entry("pascal-derived").Model(tune.HW), sb)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("routed sweep differs from single-shot on the routed entry")
	}
}

func TestGatewayAmbiguousArch(t *testing.T) {
	set := testZoo(t)
	second, err := zoo.Uniform("volta-alt", testModel(), "test")
	if err != nil {
		t.Fatal(err)
	}
	set.Entries = append(set.Entries, second)
	_, ts := newZooServer(t, Config{Zoo: set})

	code, resp := post(t, ts, "/estimate", routedBody(0, `"arch":"volta",`))
	if code != http.StatusBadRequest {
		t.Fatalf("ambiguous arch answered %d: %s", code, resp)
	}
	for _, name := range []string{"volta-base", "volta-alt"} {
		if !strings.Contains(string(resp), name) {
			t.Fatalf("ambiguity error must list the candidates, got %s", resp)
		}
	}
	// Naming the model disambiguates.
	if code, resp := post(t, ts, "/estimate", routedBody(0, `"model":"volta-alt","arch":"volta",`)); code != http.StatusOK {
		t.Fatalf("disambiguated request answered %d: %s", code, resp)
	}
}

func TestAdminListAndGet(t *testing.T) {
	s, ts := newZooServer(t, Config{})

	resp, err := http.Get(ts.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing struct {
		Default string         `json:"default"`
		Models  []ModelSummary `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if listing.Default != "volta-base" || len(listing.Models) != 3 {
		t.Fatalf("listing %+v", listing)
	}
	byName := map[string]ModelSummary{}
	for _, m := range listing.Models {
		byName[m.Name] = m
	}
	pd := byName["pascal-derived"]
	if pd.State != StateReady || pd.Arch != "pascal-titanx" || pd.DerivedFrom != "volta-base" {
		t.Fatalf("pascal summary %+v", pd)
	}
	if pd.Derivation == nil || pd.Derivation.Tech.Dynamic != 1.18 {
		t.Fatalf("pascal summary lost the derivation record: %+v", pd.Derivation)
	}
	if len(pd.Fingerprints) != int(tune.NumVariants) {
		t.Fatalf("pascal fingerprints %v", pd.Fingerprints)
	}
	if !byName["volta-base"].Default {
		t.Fatal("default entry not flagged in listing")
	}

	// Single-entry GET agrees with the listing.
	var one ModelSummary
	r2, err := http.Get(ts.URL + "/models/pascal-derived")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if err := json.NewDecoder(r2.Body).Decode(&one); err != nil {
		t.Fatal(err)
	}
	if one.Name != "pascal-derived" || one.Arch != pd.Arch {
		t.Fatalf("item GET %+v", one)
	}
	if r3, _ := http.Get(ts.URL + "/models/nope"); r3.StatusCode != 404 {
		t.Fatalf("unknown model GET answered %d", r3.StatusCode)
	}
	_ = s
}

func putJSON(t *testing.T, ts *httptest.Server, path string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, ts.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

func del(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

func TestAdminPutDeriveAndRetire(t *testing.T) {
	s, ts := newZooServer(t, Config{})

	// Hot-add a fourth entry by deriving from the registered base.
	code, resp := putJSON(t, ts, "/models/pascal-admin", []byte(`{"derive":{"from":"volta-base","arch":"pascal"}}`))
	if code != http.StatusOK {
		t.Fatalf("PUT derive answered %d: %s", code, resp)
	}
	var sum ModelSummary
	if err := json.Unmarshal(resp, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.State != StateReady || sum.Arch != "pascal-titanx" || sum.Source != "admin-derived:volta-base" {
		t.Fatalf("PUT summary %+v", sum)
	}

	// The hot-added entry routes and answers bit-identically to its twin
	// built at startup from the same base.
	body := routedBody(7, `"model":"pascal-admin",`)
	code, got := post(t, ts, "/estimate", body)
	if code != http.StatusOK {
		t.Fatalf("estimate on hot-added model: %d %s", code, got)
	}
	want, err := EstimateOnce(s.Entry("pascal-derived").Model(tune.SASSSIM), body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("admin-derived entry answers differently from the startup-derived twin")
	}

	// Retire it; routed requests now answer 404 with the tombstone message.
	if code, resp := del(t, ts, "/models/pascal-admin"); code != http.StatusOK {
		t.Fatalf("DELETE answered %d: %s", code, resp)
	}
	code, resp = post(t, ts, "/estimate", body)
	if code != 404 || !strings.Contains(string(resp), "retired") {
		t.Fatalf("retired model answered %d: %s", code, resp)
	}
	// And the tombstone is visible on the admin surface.
	r, err := http.Get(ts.URL + "/models/pascal-admin")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var tomb ModelSummary
	if err := json.NewDecoder(r.Body).Decode(&tomb); err != nil {
		t.Fatal(err)
	}
	if tomb.State != StateRetired || tomb.Arch != "" {
		t.Fatalf("tombstone %+v", tomb)
	}

	// Double retire and unknown retire are 404s; the default is pinned.
	if code, _ := del(t, ts, "/models/pascal-admin"); code != 404 {
		t.Fatalf("double retire answered %d", code)
	}
	if code, _ := del(t, ts, "/models/never-existed"); code != 404 {
		t.Fatalf("unknown retire answered %d", code)
	}
	code, resp = del(t, ts, "/models/volta-base")
	if code != 409 {
		t.Fatalf("retiring the default answered %d: %s", code, resp)
	}
}

func TestAdminPutRawModelAndGuard(t *testing.T) {
	_, ts := newZooServer(t, Config{})

	raw, err := testModel().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	// An untagged saved config serves every variant.
	code, resp := putJSON(t, ts, "/models/volta-raw", raw)
	if code != http.StatusOK {
		t.Fatalf("PUT raw model answered %d: %s", code, resp)
	}
	var sum ModelSummary
	if err := json.Unmarshal(resp, &sum); err != nil {
		t.Fatal(err)
	}
	if len(sum.Variants) != int(tune.NumVariants) {
		t.Fatalf("raw model serves %v, want all variants", sum.Variants)
	}

	// A tagged config is restricted to its recorded variant...
	tagged := testModel()
	tagged.TunedVariant = tune.SASSSIM.String()
	rawTagged, err := tagged.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	code, resp = putJSON(t, ts, "/models/volta-tagged", rawTagged)
	if code != http.StatusOK {
		t.Fatalf("PUT tagged model answered %d: %s", code, resp)
	}
	sum = ModelSummary{}
	if err := json.Unmarshal(resp, &sum); err != nil {
		t.Fatal(err)
	}
	if len(sum.Variants) != 1 || sum.Variants[0] != tune.SASSSIM.String() || sum.TunedVariant != tune.SASSSIM.String() {
		t.Fatalf("tagged model summary %+v, want SASS_SIM only", sum)
	}
	if code, resp := post(t, ts, "/estimate",
		[]byte(`{"model":"volta-tagged","variant":"HW","cycles":1000}`)); code != 400 || !strings.Contains(string(resp), "not served") {
		t.Fatalf("unserved variant answered %d: %s", code, resp)
	}

	// ...unless all_variants loudly overrides via the wrapped form.
	wrapped := append([]byte(`{"all_variants":true,"model":`), append(rawTagged, '}')...)
	code, resp = putJSON(t, ts, "/models/volta-override", wrapped)
	if code != http.StatusOK {
		t.Fatalf("PUT wrapped model answered %d: %s", code, resp)
	}
	sum = ModelSummary{}
	if err := json.Unmarshal(resp, &sum); err != nil {
		t.Fatal(err)
	}
	if len(sum.Variants) != int(tune.NumVariants) || sum.TunedVariant != tune.SASSSIM.String() {
		t.Fatalf("override summary %+v, want all variants with the tag surfaced", sum)
	}

	// Error paths.
	for _, tc := range []struct {
		name, path string
		body       []byte
		code       int
	}{
		{"invalid name", "/models/BAD NAME", raw, 400},
		{"empty body", "/models/x1", []byte(`{}`), 400},
		{"both model and derive", "/models/x2", []byte(`{"model":{},"derive":{"from":"volta-base","arch":"pascal"}}`), 400},
		{"unknown derive base", "/models/x3", []byte(`{"derive":{"from":"nope","arch":"pascal"}}`), 404},
		{"unknown derive arch", "/models/x4", []byte(`{"derive":{"from":"volta-base","arch":"ampere"}}`), 400},
		{"malformed json", "/models/x5", []byte(`{`), 400},
	} {
		if code, resp := putJSON(t, ts, tc.path, tc.body); code != tc.code {
			t.Errorf("%s: answered %d (want %d): %s", tc.name, code, tc.code, resp)
		}
	}
}

func TestAdminRegistryCap(t *testing.T) {
	_, ts := newZooServer(t, Config{MaxModels: 3})
	code, resp := putJSON(t, ts, "/models/one-too-many", []byte(`{"derive":{"from":"volta-base","arch":"pascal"}}`))
	if code != 409 || !strings.Contains(string(resp), "full") {
		t.Fatalf("over-cap PUT answered %d: %s", code, resp)
	}
	// Replacement of an existing entry is allowed at the cap.
	if code, resp := putJSON(t, ts, "/models/pascal-derived", []byte(`{"derive":{"from":"volta-base","arch":"pascal"}}`)); code != http.StatusOK {
		t.Fatalf("at-cap replace answered %d: %s", code, resp)
	}
}

// An admin PUT that loses the race with a drain answers 503, the same as
// one that arrives after it: the draining error carries its own status.
func TestAdminPutWhileDraining(t *testing.T) {
	rec := httptest.NewRecorder()
	writeStatusErr(rec, errDraining)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("writeStatusErr(errDraining) answered %d, want 503", rec.Code)
	}

	s, ts := newZooServer(t, Config{})
	if err := s.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	code, resp := putJSON(t, ts, "/models/late", []byte(`{"derive":{"from":"volta-base","arch":"pascal"}}`))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("PUT during drain answered %d: %s", code, resp)
	}
	if s.Entry("late") != nil {
		t.Fatal("PUT during drain installed the entry")
	}
}

// Hot add and retire under concurrent load: in-flight responses never
// change, and /readyz never flips for unaffected models — including while
// an install is visibly in the "deriving" state.
func TestHotSwapUnderLoad(t *testing.T) {
	s, ts := newZooServer(t, Config{Workers: 4, CacheSize: 64})

	body := routedBody(11, `"arch":"turing",`)
	want, err := EstimateOnce(s.Entry("turing-derived").Model(tune.SASSSIM), body)
	if err != nil {
		t.Fatal(err)
	}

	// While the install is mid-flight (state "deriving"), unaffected
	// models keep serving and /readyz stays ok.
	s.testHookAdmin = func(name string) {
		code, got := post(t, ts, "/estimate", body)
		if code != http.StatusOK || !bytes.Equal(got, want) {
			t.Errorf("turing request during %s install: %d %s", name, code, got)
		}
		r, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Error(err)
			return
		}
		defer r.Body.Close()
		lines, _ := io.ReadAll(r.Body)
		if r.StatusCode != http.StatusOK {
			t.Errorf("/readyz flipped to %d during install", r.StatusCode)
		}
		text := string(lines)
		if !strings.Contains(text, "model turing-derived: ready") {
			t.Errorf("unaffected model not ready during install:\n%s", text)
		}
		if !strings.Contains(text, name+": deriving") {
			t.Errorf("installing model not visible as deriving:\n%s", text)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, got := post(t, ts, "/estimate", body)
				if code != http.StatusOK || !bytes.Equal(got, want) {
					t.Errorf("in-flight response changed under admin churn: %d %s", code, got)
					return
				}
			}
		}()
	}

	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("churn-%d", i)
		if code, resp := putJSON(t, ts, "/models/"+name, []byte(`{"derive":{"from":"volta-base","arch":"pascal"}}`)); code != http.StatusOK {
			t.Fatalf("hot add %s: %d %s", name, code, resp)
		}
		if code, resp := del(t, ts, "/models/"+name); code != http.StatusOK {
			t.Fatalf("retire %s: %d %s", name, code, resp)
		}
	}
	close(stop)
	wg.Wait()
}

func TestHealthEndpointsPerModel(t *testing.T) {
	s, ts := newZooServer(t, Config{CacheSize: 8})

	// Warm one cache entry on the default so per-model cached counts show.
	if code, _ := post(t, ts, "/estimate", routedBody(21, ``)); code != http.StatusOK {
		t.Fatal("warmup failed")
	}

	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var h struct {
		Status   string `json:"status"`
		Default  string `json:"default"`
		Variants []string
		Cached   int `json:"cached"`
		Models   map[string]struct {
			State       string   `json:"state"`
			Arch        string   `json:"arch"`
			Variants    []string `json:"variants"`
			Cached      int      `json:"cached"`
			DerivedFrom string   `json:"derived_from"`
		} `json:"models"`
	}
	if err := json.NewDecoder(r.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Default != "volta-base" || len(h.Models) != 3 {
		t.Fatalf("healthz %+v", h)
	}
	if h.Models["volta-base"].Cached != 1 || h.Cached != 1 {
		t.Fatalf("cached counts: default %d, total %d, want 1/1", h.Models["volta-base"].Cached, h.Cached)
	}
	if got := h.Models["pascal-derived"]; got.State != StateReady || got.DerivedFrom != "volta-base" {
		t.Fatalf("pascal healthz detail %+v", got)
	}

	// /readyz lists every model in registration order.
	r2, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	lines, _ := io.ReadAll(r2.Body)
	text := string(lines)
	for _, name := range []string{"volta-base", "pascal-derived", "turing-derived"} {
		if !strings.Contains(text, "model "+name+": ready") {
			t.Fatalf("/readyz missing %s:\n%s", name, text)
		}
	}

	// Retire a model: the tombstone stays visible on both endpoints.
	if code, _ := del(t, ts, "/models/turing-derived"); code != http.StatusOK {
		t.Fatal("retire failed")
	}
	r3, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Body.Close()
	lines, _ = io.ReadAll(r3.Body)
	if !strings.Contains(string(lines), "model turing-derived: retired") {
		t.Fatalf("/readyz lost the tombstone:\n%s", lines)
	}
	_ = s
}

// The variant-mismatch satellite: serving a variant-tagged model under a
// different variant increments aw_serve_variant_mismatch_total for that
// model, visible on /metrics.
func TestVariantMismatchMetric(t *testing.T) {
	_, ts := newZooServer(t, Config{})

	tagged := testModel()
	tagged.TunedVariant = tune.SASSSIM.String()
	raw, err := tagged.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	wrapped := append([]byte(`{"all_variants":true,"model":`), append(raw, '}')...)
	if code, resp := putJSON(t, ts, "/models/tagged-override", wrapped); code != http.StatusOK {
		t.Fatalf("PUT: %d %s", code, resp)
	}

	scrape := func() string {
		t.Helper()
		r, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		b, _ := io.ReadAll(r.Body)
		return string(b)
	}
	series := `aw_serve_variant_mismatch_total{model="tagged-override"}`
	countOf := func(text string) float64 {
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, series) {
				var v float64
				fmt.Sscanf(strings.TrimPrefix(line, series), "%f", &v)
				return v
			}
		}
		return 0
	}
	before := countOf(scrape())

	// Matching variant: no mismatch.
	if code, resp := post(t, ts, "/estimate",
		[]byte(`{"model":"tagged-override","variant":"SASS_SIM","cycles":1000}`)); code != http.StatusOK {
		t.Fatalf("matching-variant estimate: %d %s", code, resp)
	}
	if got := countOf(scrape()); got != before {
		t.Fatalf("mismatch counter moved on a matching variant: %v -> %v", before, got)
	}

	// Mismatched variant: counted.
	if code, resp := post(t, ts, "/estimate",
		[]byte(`{"model":"tagged-override","variant":"HW","cycles":1000}`)); code != http.StatusOK {
		t.Fatalf("mismatched-variant estimate: %d %s", code, resp)
	}
	if got := countOf(scrape()); got != before+1 {
		t.Fatalf("mismatch counter = %v, want %v", got, before+1)
	}

	// Retiring the model drops its series from the exposition.
	if code, _ := del(t, ts, "/models/tagged-override"); code != http.StatusOK {
		t.Fatal("retire failed")
	}
	if strings.Contains(scrape(), series) {
		t.Fatal("retired model's mismatch series still exposed")
	}
}

// Per-model bit identity at multiple worker counts and cache settings, for
// tuned and derived entries alike — the zoo-wide extension of
// TestServingDeterminism. Run under -race in CI.
func TestGatewayDeterminismPerModel(t *testing.T) {
	for _, workers := range []int{1, 8} {
		for _, cacheSize := range []int{0, 64} {
			t.Run(fmt.Sprintf("workers=%d/cache=%d", workers, cacheSize), func(t *testing.T) {
				s, ts := newZooServer(t, Config{Workers: workers, CacheSize: cacheSize})
				type wire struct {
					route      string
					body, want []byte
				}
				var fixed []wire
				for _, entry := range []string{"volta-base", "pascal-derived", "turing-derived"} {
					m := s.Entry(entry).Model(tune.SASSSIM)
					for i := 0; i < 8; i++ {
						body := routedBody(i, fmt.Sprintf(`"model":%q,`, entry))
						want, err := EstimateOnce(m, body)
						if err != nil {
							t.Fatal(err)
						}
						fixed = append(fixed, wire{"/estimate", body, want})
					}
					sb := fmt.Appendf(nil,
						`{"model":%q,"name":"gs","variant":"SASS_SIM","cycles":2000000,"active_sms":80,"avg_lanes":32,"counts":{"l2_noc":30000000},"min_mhz":780,"max_mhz":1380,"step_mhz":60}`,
						entry)
					want, err := SweepOnce(m, sb)
					if err != nil {
						t.Fatal(err)
					}
					fixed = append(fixed, wire{"/sweep", sb, want})
				}
				var wg sync.WaitGroup
				for round := 0; round < 2; round++ {
					for _, w := range fixed {
						wg.Add(1)
						go func(w wire) {
							defer wg.Done()
							resp, err := http.Post(ts.URL+w.route, "application/json", bytes.NewReader(w.body))
							if err != nil {
								t.Error(err)
								return
							}
							defer resp.Body.Close()
							got, _ := io.ReadAll(resp.Body)
							if resp.StatusCode != http.StatusOK || !bytes.Equal(got, w.want) {
								t.Errorf("%s %s: response differs from single-shot (status %d)", w.route, w.body[:40], resp.StatusCode)
							}
						}(w)
					}
				}
				wg.Wait()
			})
		}
	}
}
