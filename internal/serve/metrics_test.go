package serve

import (
	"net/http"
	"strings"
	"testing"

	"accelwattch/internal/tune"
)

// TestServedPathAllocs pins the request path's per-request allocations to
// zero in three places: a miss, a hit, and the estimate accounting, which
// update metric series the unit resolved at install instead of looking
// them up by label.
func TestServedPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	req, err := DecodeEstimateRequest(estBody(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := computeEstimate(testModel(), req)
	if err != nil {
		t.Fatal(err)
	}
	key := req.CacheKey()
	compute := func() (result, error) { return res, nil }

	for _, c := range []struct {
		name      string
		cacheSize int
	}{{"cache-bypass miss", 0}, {"hit", 8}} {
		s, _ := newTestServer(t, Config{CacheSize: c.cacheSize})
		u := s.units[s.DefaultName()]
		if n := testing.AllocsPerRun(100, func() {
			if _, err := s.answer(u, key, compute); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("answer on a %s allocates %v per request, want 0", c.name, n)
		}
		if c.cacheSize == 0 {
			if n := testing.AllocsPerRun(100, func() { emitEstimate(u, tune.SASSSIM, req, res) }); n != 0 {
				t.Errorf("emitEstimate without a ledger allocates %v per request, want 0", n)
			}
		}
	}
}

// TestRetireLeavesNoSeries: an /estimate still computing when its model is
// retired must not bring the model's series back once it finishes; only
// the readiness tombstone keeps the name.
func TestRetireLeavesNoSeries(t *testing.T) {
	s, ts := newZooServer(t, Config{CacheSize: 8})
	g := newGate()
	s.testHookCompute = g.hook
	held := holdCompute(t, ts, g, routedBody(3, `"model":"turing-derived",`))
	if err := s.Retire("turing-derived"); err != nil {
		t.Fatal(err)
	}
	g.open()
	if code := <-held; code != http.StatusOK {
		t.Fatalf("in-flight estimate finished with %d, want 200", code)
	}
	for _, line := range strings.Split(promDump(t), "\n") {
		if strings.HasPrefix(line, "aw_serve_model_state{") {
			continue
		}
		if strings.Contains(line, `model="turing-derived"`) || strings.Contains(line, `tenant="turing-derived"`) {
			t.Errorf("retired model's series survived: %s", line)
		}
	}
}
