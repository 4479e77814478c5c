package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"accelwattch/internal/config"
	"accelwattch/internal/core"
	"accelwattch/internal/obs"
	"accelwattch/internal/tune"
	"accelwattch/internal/zoo"
)

// testModel builds a hand-constructed, valid model — no tuning, so the
// serving tests run in milliseconds.
func testModel() *core.Model {
	m := &core.Model{
		Arch:         config.Volta(),
		BaseEnergyPJ: core.InitialEnergiesPJ(),
		ConstW:       32.5,
		IdleSMW:      0.1,
		RefSMs:       80,
	}
	for i := range m.Scale {
		m.Scale[i] = 0.1
	}
	for i := range m.Div {
		m.Div[i] = core.DivModel{FirstLaneW: 30, AddLaneW: 0.7}
	}
	return m
}

// testModels serves the same model for every variant.
func testModels() map[tune.Variant]*core.Model {
	m := testModel()
	out := make(map[tune.Variant]*core.Model, tune.NumVariants)
	for _, v := range tune.Variants() {
		out[v] = m
	}
	return out
}

// testSet serves models as the single default entry.
func testSet(tb testing.TB, models map[tune.Variant]*core.Model) *zoo.Set {
	tb.Helper()
	e, err := zoo.PerVariant("default", models, "config")
	if err != nil {
		tb.Fatal(err)
	}
	return &zoo.Set{Default: e.Name, Entries: []*zoo.Entry{e}}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Zoo == nil {
		cfg.Zoo = testSet(t, testModels())
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

// estBody is a well-formed /estimate request body; i varies the counters so
// distinct i yield distinct cache keys.
func estBody(i int) []byte {
	return fmt.Appendf(nil,
		`{"name":"k%d","variant":"SASS_SIM","cycles":1000000,"active_sms":%d,"avg_lanes":%d,"mix":"INT_FP","counts":{"alu":%d,"regfile":2000000000}}`,
		i, 40+i%40, 1+i%32, 500000000+i)
}

func sweepBody(i int) []byte {
	return fmt.Appendf(nil,
		`{"name":"s%d","variant":"HW","cycles":1000000,"active_sms":80,"avg_lanes":32,"counts":{"alu":%d},"min_mhz":800,"max_mhz":1400,"step_mhz":100}`,
		i, 100000000+i)
}

func post(t *testing.T, ts *httptest.Server, route string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+route, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", route, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp.StatusCode, b
}

func TestDecodeEstimateRequest(t *testing.T) {
	cases := []struct {
		name string
		body string
		ok   bool
	}{
		{"minimal", `{"variant":"SASS_SIM","cycles":1}`, true},
		{"full", string(estBody(0)), true},
		{"unknown field", `{"variant":"SASS_SIM","cycles":1,"wattage":3}`, false},
		{"trailing garbage", `{"variant":"SASS_SIM","cycles":1}{"x":1}`, false},
		{"trailing word", `{"variant":"SASS_SIM","cycles":1} xyz`, false},
		{"trailing brace", `{"variant":"SASS_SIM","cycles":1}}`, false},
		{"trailing bracket", `{"variant":"SASS_SIM","cycles":1}]`, false},
		{"trailing open object", `{"variant":"SASS_SIM","cycles":1}{`, false},
		{"trailing white space", "{\"variant\":\"SASS_SIM\",\"cycles\":1} \t\r\n", true},
		{"unknown variant", `{"variant":"SASS","cycles":1}`, false},
		{"missing variant", `{"cycles":1}`, false},
		{"unknown mix", `{"variant":"HW","cycles":1,"mix":"FP128"}`, false},
		{"unknown component", `{"variant":"HW","cycles":1,"counts":{"warp_drive":2}}`, false},
		{"pseudo component static", `{"variant":"HW","cycles":1,"counts":{"static":2}}`, false},
		{"pseudo component const", `{"variant":"HW","cycles":1,"counts":{"const":2}}`, false},
		{"zero cycles", `{"variant":"HW","cycles":0}`, false},
		{"negative count", `{"variant":"HW","cycles":1,"counts":{"alu":-1}}`, false},
		{"lanes beyond warp", `{"variant":"HW","cycles":1,"avg_lanes":33}`, false},
		{"negative clock", `{"variant":"HW","cycles":1,"clock_mhz":-5}`, false},
		{"not json", `hello`, false},
		{"array body", `[1,2,3]`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeEstimateRequest([]byte(tc.body))
			if (err == nil) != tc.ok {
				t.Fatalf("DecodeEstimateRequest(%s): err=%v, want ok=%v", tc.body, err, tc.ok)
			}
		})
	}
}

func TestDecodeEstimateRequestNonFinite(t *testing.T) {
	// JSON cannot carry NaN, but directly-constructed requests can; validate
	// must reject them rather than let NaN poison cache keys.
	r := &EstimateRequest{Variant: "HW", Cycles: math.NaN()}
	if err := r.validate(); err == nil {
		t.Fatal("validate accepted NaN cycles")
	}
	r = &EstimateRequest{Variant: "HW", Cycles: 1, Counts: map[string]float64{"alu": math.Inf(1)}}
	if err := r.validate(); err == nil {
		t.Fatal("validate accepted +Inf count")
	}
}

func TestDecodeSweepRequest(t *testing.T) {
	cases := []struct {
		name string
		body string
		ok   bool
	}{
		{"valid", string(sweepBody(0)), true},
		{"zero step", `{"variant":"HW","cycles":1,"min_mhz":800,"max_mhz":900,"step_mhz":0}`, false},
		{"negative step", `{"variant":"HW","cycles":1,"min_mhz":800,"max_mhz":900,"step_mhz":-10}`, false},
		{"zero min", `{"variant":"HW","cycles":1,"min_mhz":0,"max_mhz":900,"step_mhz":10}`, false},
		{"inverted range", `{"variant":"HW","cycles":1,"min_mhz":900,"max_mhz":800,"step_mhz":10}`, false},
		{"too many points", `{"variant":"HW","cycles":1,"min_mhz":1,"max_mhz":100000,"step_mhz":0.5}`, false},
		{"single point", `{"variant":"HW","cycles":1,"min_mhz":800,"max_mhz":800,"step_mhz":10}`, true},
		// Steps below one ULP of the endpoints round away (min+step == min):
		// under float accumulation such a ladder would loop forever, so the
		// validator must reject it even when the nominal point count is tiny.
		{"sub-ULP step, min==max", `{"variant":"HW","cycles":1,"min_mhz":2000,"max_mhz":2000,"step_mhz":1e-13}`, false},
		{"sub-ULP step, tiny range", `{"variant":"HW","cycles":1,"min_mhz":2000,"max_mhz":2000.0000000000005,"step_mhz":1e-13}`, false},
		{"denormal step", `{"variant":"HW","cycles":1,"min_mhz":1,"max_mhz":2,"step_mhz":5e-324}`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeSweepRequest([]byte(tc.body))
			if (err == nil) != tc.ok {
				t.Fatalf("DecodeSweepRequest(%s): err=%v, want ok=%v", tc.body, err, tc.ok)
			}
		})
	}
}

func TestCacheKeyCanonical(t *testing.T) {
	base := func() *EstimateRequest {
		return &EstimateRequest{
			Variant: "SASS_SIM", Cycles: 1e6, ActiveSMs: 80, AvgLanes: 32,
			Mix: "INT_FP", Counts: map[string]float64{"alu": 5e8, "regfile": 2e9},
		}
	}
	a, b := base(), base()
	if a.CacheKey() != b.CacheKey() {
		t.Fatal("identical requests produced different keys")
	}
	// The ledger label must not influence the key.
	b.Name = "renamed"
	if a.CacheKey() != b.CacheKey() {
		t.Fatal("Name leaked into the cache key")
	}
	// A zero count is the same computation as an absent one.
	b = base()
	b.Counts["inst_buffer"] = 0
	if a.CacheKey() != b.CacheKey() {
		t.Fatal("zero count changed the cache key")
	}
	// Every computation-relevant field must change the key.
	muts := []func(*EstimateRequest){
		func(r *EstimateRequest) { r.Variant = "HW" },
		func(r *EstimateRequest) { r.Cycles = 2e6 },
		func(r *EstimateRequest) { r.ClockMHz = 1000 },
		func(r *EstimateRequest) { r.Voltage = 0.9 },
		func(r *EstimateRequest) { r.ActiveSMs = 79 },
		func(r *EstimateRequest) { r.AvgLanes = 31 },
		func(r *EstimateRequest) { r.Mix = "INT" },
		func(r *EstimateRequest) { r.TemperatureC = 70 },
		func(r *EstimateRequest) { r.Counts["alu"] = 5e8 + 1 },
		func(r *EstimateRequest) { r.Counts["inst_buffer"] = 1 },
		func(r *EstimateRequest) { delete(r.Counts, "regfile") },
	}
	for i, mut := range muts {
		m := base()
		mut(m)
		if m.CacheKey() == a.CacheKey() {
			t.Errorf("mutation %d did not change the cache key", i)
		}
	}
	// Sweep keys must never collide with estimate keys.
	sw := &SweepRequest{EstimateRequest: *base(), MinMHz: 800, MaxMHz: 1400, StepMHz: 100}
	if sw.CacheKey() == a.CacheKey() {
		t.Fatal("sweep key collided with estimate key")
	}
	sw2 := *sw
	sw2.StepMHz = 200
	if sw.CacheKey() == sw2.CacheKey() {
		t.Fatal("ladder step did not change the sweep key")
	}

	// The key text itself is pinned: two golden bodies, one per route.
	golden := goldenRequests()
	est, err := DecodeEstimateRequest([]byte(golden[1].Body))
	if err != nil {
		t.Fatal(err)
	}
	const wantEst = "est|v=SASS_SIM|mix=INT_FP|cy=0x1.e848p+19|f=0x0p+00|V=0x0p+00|sm=0x1p+06|y=0x1p+05|T=0x0p+00|c:regfile=0x1.dcd65p+30,alu=0x1.dcd65p+28,"
	if got := est.CacheKey(); got != wantEst {
		t.Errorf("%s: key\n %q\nwant\n %q", golden[1].Name, got, wantEst)
	}
	swp, err := DecodeSweepRequest([]byte(golden[5].Body))
	if err != nil {
		t.Fatal(err)
	}
	const wantSwp = "swp|est|v=HW|mix=|cy=0x1.e848p+19|f=0x0p+00|V=0x0p+00|sm=0x1.4p+06|y=0x1p+05|T=0x0p+00|c:alu=0x1.7d784p+26,|lo=0x1.9p+09|hi=0x1.5ep+10|st=0x1.9p+06"
	if got := swp.CacheKey(); got != wantSwp {
		t.Errorf("%s: key\n %q\nwant\n %q", golden[5].Name, got, wantSwp)
	}
}

func TestLRUCache(t *testing.T) {
	c := newLRUCache(2, nil)
	c.Put("a", result{powerW: 1})
	c.Put("b", result{powerW: 2})
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted prematurely")
	}
	c.Put("c", result{powerW: 3}) // "b" is LRU now
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a lost")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c lost")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	// Refreshing an existing key must not grow the cache.
	c.Put("a", result{powerW: 10})
	if c.Len() != 2 {
		t.Fatalf("Len after refresh = %d, want 2", c.Len())
	}
	if r, _ := c.Get("a"); r.powerW != 10 {
		t.Fatalf("refresh lost: powerW = %g", r.powerW)
	}
	// A nil cache (caching disabled) is inert but safe.
	var off *lruCache
	off.Put("x", result{})
	if _, ok := off.Get("x"); ok {
		t.Fatal("nil cache returned a hit")
	}
	if off.Len() != 0 {
		t.Fatal("nil cache has nonzero length")
	}
	if newLRUCache(0, nil) != nil {
		t.Fatal("capacity 0 should disable the cache")
	}
}

func TestEstimateMatchesSingleShot(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: 64})
	body := estBody(1)
	code, got := post(t, ts, "/estimate", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, got)
	}
	want, err := EstimateOnce(s.Model(tune.SASSSIM), body)
	if err != nil {
		t.Fatalf("EstimateOnce: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("served body differs from single-shot path:\n got %s\nwant %s", got, want)
	}
	// The attribution invariant: breakdown sums exactly to power_w when
	// accumulated in component order.
	var resp EstimateResponse
	if err := json.Unmarshal(got, &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	bd, err := core.BreakdownFromMap(resp.Breakdown)
	if err != nil {
		t.Fatalf("BreakdownFromMap: %v", err)
	}
	if bd.Total() != resp.PowerW {
		t.Fatalf("breakdown sums to %v, response says %v", bd.Total(), resp.PowerW)
	}
	if len(resp.Breakdown) != core.NumComponents {
		t.Fatalf("breakdown has %d components, want %d", len(resp.Breakdown), core.NumComponents)
	}
}

func TestSweepMatchesSingleShot(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: 64})
	body := sweepBody(1)
	code, got := post(t, ts, "/sweep", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, got)
	}
	want, err := SweepOnce(s.Model(tune.HW), body)
	if err != nil {
		t.Fatalf("SweepOnce: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("served sweep differs from single-shot path:\n got %s\nwant %s", got, want)
	}
	var resp SweepResponse
	if err := json.Unmarshal(got, &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(resp.Points) != 7 {
		t.Fatalf("got %d points, want 7 (800..1400 step 100)", len(resp.Points))
	}
}

func TestCacheHitServesIdenticalBytes(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: 8})
	body := estBody(2)
	shard := s.units[s.DefaultName()].cache
	_, first := post(t, ts, "/estimate", body)
	if shard.Len() != 1 {
		t.Fatalf("cache holds %d entries after first request, want 1", shard.Len())
	}
	_, second := post(t, ts, "/estimate", body)
	if !bytes.Equal(first, second) {
		t.Fatal("cache hit served different bytes")
	}
	if shard.Len() != 1 {
		t.Fatalf("cache holds %d entries after hit, want 1", shard.Len())
	}
}

func TestHTTPErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	t.Run("404 route", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/no-such-route")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status %d, want 404", resp.StatusCode)
		}
	})
	t.Run("405 GET estimate", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/estimate")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status %d, want 405", resp.StatusCode)
		}
	})
	t.Run("400 malformed", func(t *testing.T) {
		code, _ := post(t, ts, "/estimate", []byte(`{"nope`))
		if code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", code)
		}
	})
	t.Run("400 sweep bad ladder", func(t *testing.T) {
		code, _ := post(t, ts, "/sweep", []byte(`{"variant":"HW","cycles":1,"min_mhz":9,"max_mhz":8,"step_mhz":1}`))
		if code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", code)
		}
	})
	// A valid body can still produce non-finite watts; the encoder's
	// failure is the answer, with json.Marshal's text.
	for _, tc := range []struct{ name, body, want string }{
		{"+Inf", `{"variant":"HW","cycles":1,"active_sms":80,"avg_lanes":32,"counts":{"alu":1e308,"fpu":1e308}`,
			`{"error":"json: unsupported value: +Inf"}` + "\n"},
		{"NaN", `{"variant":"HW","cycles":1e-320,"active_sms":80,"avg_lanes":32,"counts":{"alu":1e10}`,
			`{"error":"json: unsupported value: NaN"}` + "\n"},
	} {
		t.Run("400 non-finite "+tc.name, func(t *testing.T) {
			for route, body := range map[string]string{
				"/estimate": tc.body + "}",
				"/sweep":    tc.body + `,"min_mhz":800,"max_mhz":1400,"step_mhz":100}`,
			} {
				code, got := post(t, ts, route, []byte(body))
				if code != http.StatusBadRequest || string(got) != tc.want {
					t.Errorf("%s: %d %q, want 400 %q", route, code, got, tc.want)
				}
			}
		})
	}
	t.Run("413 oversize", func(t *testing.T) {
		big := append([]byte(`{"variant":"SASS_SIM","cycles":1,"name":"`),
			bytes.Repeat([]byte("x"), maxBodyBytes+16)...)
		big = append(big, []byte(`"}`)...)
		code, _ := post(t, ts, "/estimate", big)
		if code != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d, want 413", code)
		}
	})
}

func TestVariantNotServed(t *testing.T) {
	// Only SASS_SIM configured: the other variants answer 400.
	_, ts := newTestServer(t, Config{
		Zoo: testSet(t, map[tune.Variant]*core.Model{tune.SASSSIM: testModel()}),
	})
	code, _ := post(t, ts, "/estimate", []byte(`{"variant":"HW","cycles":1}`))
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 for unserved variant", code)
	}
	code, _ = post(t, ts, "/estimate", []byte(`{"variant":"SASS_SIM","cycles":1}`))
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200 for served variant", code)
	}
}

func TestConfigRejects(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted an empty model set")
	}
	bad := testModel()
	bad.RefSMs = 0
	e := &zoo.Entry{Name: "default", Arch: bad.Arch.Name}
	e.Models[tune.HW] = bad
	if _, err := New(Config{Zoo: &zoo.Set{Default: "default", Entries: []*zoo.Entry{e}}}); err == nil {
		t.Fatal("New accepted an invalid model")
	}
}

// gate instruments testHookCompute so tests can hold compute slots.
type gate struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGate() *gate {
	return &gate{entered: make(chan struct{}, 64), release: make(chan struct{})}
}

func (g *gate) hook() {
	g.entered <- struct{}{}
	<-g.release
}

// open releases every held and future computation. Idempotent.
func (g *gate) open() { g.once.Do(func() { close(g.release) }) }

// holdSlot starts a request on body and returns once its computation holds
// a compute slot at the gate. The returned channel yields its status after
// the gate opens. The gate also opens at cleanup, before the server shuts
// down, so a failing test ends instead of hanging on the held request.
func holdSlot(t *testing.T, ts *httptest.Server, g *gate, body []byte) <-chan int {
	t.Helper()
	t.Cleanup(g.open)
	code := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/estimate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			code <- 0
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		code <- resp.StatusCode
	}()
	<-g.entered
	return code
}

func TestBackpressure429(t *testing.T) {
	// One compute slot plus one waiting place: the third concurrent miss
	// is over the admission bound.
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 1})
	g := newGate()
	s.testHookCompute = g.hook
	held := holdSlot(t, ts, g, estBody(10))

	// Two more misses race for the single waiting place: one is admitted
	// and waits for the held slot, the other is refused at once.
	type answer struct {
		code       int
		retryAfter string
	}
	answers := make(chan answer, 2)
	for _, i := range []int{11, 12} {
		go func() {
			resp, err := http.Post(ts.URL+"/estimate", "application/json", bytes.NewReader(estBody(i)))
			if err != nil {
				t.Error(err)
				answers <- answer{}
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			answers <- answer{resp.StatusCode, resp.Header.Get("Retry-After")}
		}()
	}
	refused := <-answers
	if refused.code != http.StatusTooManyRequests {
		t.Fatalf("first answer while the slot is held: %d, want 429", refused.code)
	}
	if refused.retryAfter == "" {
		t.Error("429 without Retry-After header")
	}

	g.open()
	if code := <-held; code != http.StatusOK {
		t.Errorf("held request finished with %d, want 200", code)
	}
	if admitted := <-answers; admitted.code != http.StatusOK {
		t.Errorf("admitted request finished with %d, want 200", admitted.code)
	}
}

func TestDeadline504(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Deadline: 20 * time.Millisecond})
	g := newGate()
	s.testHookCompute = g.hook
	held := holdSlot(t, ts, g, estBody(20))

	// The only slot stays held past the deadline of a request waiting for it.
	code, body := post(t, ts, "/estimate", estBody(21))
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", code, body)
	}
	g.open()
	if code := <-held; code != http.StatusOK {
		t.Fatalf("held request finished with %d, want 200", code)
	}
}

func TestCancel499(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	g := newGate()
	s.testHookCompute = g.hook
	held := holdSlot(t, ts, g, estBody(25))
	canceled := mRejected.With("canceled")
	before := canceled.Value()

	// A client that gives up while waiting for the held slot.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/estimate", bytes.NewReader(estBody(26))).WithContext(ctx)
	s.Mux().ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("status %d, want 499: %s", rec.Code, rec.Body.Bytes())
	}
	if got := canceled.Value(); got != before+1 {
		t.Fatalf(`aw_serve_rejected_total{reason="canceled"} = %v, want %v`, got, before+1)
	}
	g.open()
	if code := <-held; code != http.StatusOK {
		t.Fatalf("held request finished with %d, want 200", code)
	}
}

func TestDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	g := newGate()
	s.testHookCompute = g.hook
	held := holdSlot(t, ts, g, estBody(30)) // admitted work is now computing

	drainStarted := make(chan struct{})
	drained := make(chan error, 1)
	go func() {
		close(drainStarted)
		drained <- s.Drain(t.Context())
	}()
	<-drainStarted
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}

	// New estimation work is refused while draining...
	code, _ := post(t, ts, "/estimate", estBody(31))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d during drain, want 503", code)
	}
	// ...readiness flips...
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz %d during drain, want 503", resp.StatusCode)
	}
	// ...but liveness stays up.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz %d during drain, want 200", resp.StatusCode)
	}

	// Drain is still waiting for the held computation...
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) while an admitted computation was held", err)
	default:
	}
	// ...and releasing it completes the drain; the admitted request is
	// answered, not dropped.
	g.open()
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if code := <-held; code != http.StatusOK {
		t.Fatalf("held request finished with %d, want 200", code)
	}
}

// TestServeCloseIdempotentUnderRace is the shutdown regression: concurrent
// Close calls racing a SIGTERM-style Drain while a computation holds a slot
// must all return cleanly, the held request must be answered, and the
// server must refuse new work afterwards.
func TestServeCloseIdempotentUnderRace(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	g := newGate()
	s.testHookCompute = g.hook
	held := holdSlot(t, ts, g, estBody(1))

	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			s.Close()
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		_ = s.Drain(context.Background())
	}()
	close(start)
	time.Sleep(10 * time.Millisecond) // let the closers reach the drain wait
	g.open()

	closed := make(chan struct{})
	go func() { wg.Wait(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close/Drain race did not settle")
	}
	if code := <-held; code != http.StatusOK {
		t.Errorf("held request finished with %d, want 200", code)
	}

	// The closed server refuses new work.
	if code, _ := post(t, ts, "/estimate", estBody(2)); code != http.StatusServiceUnavailable {
		t.Fatalf("post-Close estimate = %d, want 503", code)
	}
	s.Close() // still idempotent after the race
}

func TestLedgerEmission(t *testing.T) {
	led := obs.NewLedger("serve-test")
	obs.SetLedger(led)
	defer obs.SetLedger(nil)

	_, ts := newTestServer(t, Config{CacheSize: 8})
	body := estBody(50)
	post(t, ts, "/estimate", body)
	post(t, ts, "/estimate", body) // cache hit must still be attributed
	post(t, ts, "/sweep", sweepBody(50))

	var events []obs.Event
	for _, ev := range led.Events() {
		if ev.Kind == obs.KindBreakdown && ev.Stage == "serve/estimate" {
			events = append(events, ev)
		}
	}
	if len(events) != 2 {
		t.Fatalf("got %d serve/estimate breakdown events, want 2 (one per served estimate)", len(events))
	}
	for _, ev := range events {
		if ev.Workload != "k50" || ev.Variant != "SASS_SIM" {
			t.Fatalf("event mislabelled: workload %q variant %q", ev.Workload, ev.Variant)
		}
		bd, err := core.BreakdownFromMap(ev.Breakdown)
		if err != nil {
			t.Fatalf("event breakdown: %v", err)
		}
		if bd.Total() != ev.PowerW {
			t.Fatalf("attribution invariant broken: sum %v != power %v", bd.Total(), ev.PowerW)
		}
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status   string   `json:"status"`
		Draining bool     `json:"draining"`
		Variants []string `json:"variants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Draining || len(health.Variants) != int(tune.NumVariants) {
		t.Fatalf("healthz = %+v", health)
	}

	post(t, ts, "/estimate", estBody(60))
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	exposition := string(b)
	for _, want := range []string{
		"aw_serve_requests_total", "aw_serve_request_seconds",
		"aw_serve_cache_events_total", "aw_serve_queue_depth",
		"aw_serve_draining", "aw_serve_estimates_total",
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

func TestIndex(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(b), "/estimate") {
		t.Fatalf("index: %d %s", resp.StatusCode, b)
	}
}

func TestCloseIdempotent(t *testing.T) {
	s, err := New(Config{Zoo: testSet(t, testModels())})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // second Close must not panic or deadlock
}
