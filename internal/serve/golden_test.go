package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// goldenCase is one pinned request/response pair. The response bytes in
// testdata/golden_responses.json were captured from the pre-gateway server
// (one Server = one model set, no zoo), so this test proves that a
// single-model default configuration of the refactored gateway answers
// bytes-equal to the pre-refactor server — the back-compatibility contract
// of the model-zoo refactor.
type goldenCase struct {
	Name     string `json:"name"`
	Route    string `json:"route"`
	Body     string `json:"body"`
	Status   int    `json:"status"`
	Response string `json:"response"`
}

const goldenPath = "testdata/golden_responses.json"

// goldenRequests is the fixed request set: mixed estimates and sweeps over
// the hand-constructed fixture model, plus the error statuses a pre-zoo
// client could observe. Bodies deliberately use none of the new routing
// fields.
func goldenRequests() []goldenCase {
	return []goldenCase{
		{Name: "estimate minimal", Route: "/estimate",
			Body: `{"variant":"SASS_SIM","cycles":1000000}`},
		{Name: "estimate counters", Route: "/estimate",
			Body: `{"name":"gold-1","variant":"SASS_SIM","cycles":1000000,"active_sms":64,"avg_lanes":32,"mix":"INT_FP","counts":{"alu":500000000,"regfile":2000000000}}`},
		{Name: "estimate dvfs point", Route: "/estimate",
			Body: `{"variant":"HW","cycles":2500000,"clock_mhz":1100,"active_sms":80,"avg_lanes":17,"mix":"INT_FP_DP","counts":{"fpu":250000000,"dram_mc":90000000}}`},
		{Name: "estimate temperature", Route: "/estimate",
			Body: `{"variant":"HYBRID","cycles":1000000,"active_sms":40,"avg_lanes":8,"temperature_c":71,"counts":{"l2_noc":12345678}}`},
		{Name: "estimate ptx", Route: "/estimate",
			Body: `{"variant":"PTX_SIM","cycles":3000000,"active_sms":20,"avg_lanes":31,"counts":{"alu":100000001}}`},
		{Name: "sweep ladder", Route: "/sweep",
			Body: `{"name":"gold-s","variant":"HW","cycles":1000000,"active_sms":80,"avg_lanes":32,"counts":{"alu":100000000},"min_mhz":800,"max_mhz":1400,"step_mhz":100}`},
		{Name: "sweep single point", Route: "/sweep",
			Body: `{"variant":"SASS_SIM","cycles":1000000,"active_sms":10,"avg_lanes":4,"min_mhz":1200,"max_mhz":1200,"step_mhz":50}`},
		{Name: "unknown variant 400", Route: "/estimate",
			Body: `{"variant":"SASS","cycles":1}`},
		{Name: "unknown component 400", Route: "/estimate",
			Body: `{"variant":"HW","cycles":1,"counts":{"warp_drive":2}}`},
		{Name: "bad ladder 400", Route: "/sweep",
			Body: `{"variant":"HW","cycles":1,"min_mhz":900,"max_mhz":800,"step_mhz":10}`},
	}
}

// TestGoldenSingleModelBackCompat replays the pinned request set against a
// server whose zoo holds one entry serving the fixture model for every
// variant, and requires the exact pre-refactor status and body for every
// case. Regenerate (only when
// the serving contract is deliberately changed) with:
//
//	UPDATE_SERVE_GOLDEN=1 go test ./internal/serve/ -run TestGoldenSingleModelBackCompat
func TestGoldenSingleModelBackCompat(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 64})

	run := func() []goldenCase {
		cases := goldenRequests()
		for i := range cases {
			code, body := post(t, ts, cases[i].Route, []byte(cases[i].Body))
			cases[i].Status = code
			cases[i].Response = string(body)
		}
		return cases
	}

	if os.Getenv("UPDATE_SERVE_GOLDEN") != "" {
		got := run()
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden cases to %s", len(got), goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with UPDATE_SERVE_GOLDEN=1): %v", err)
	}
	var want []goldenCase
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", goldenPath, err)
	}
	got := run()
	if len(got) != len(want) {
		t.Fatalf("golden file has %d cases, test produced %d", len(want), len(got))
	}
	for i := range want {
		if got[i].Status != want[i].Status {
			t.Errorf("%s: status %d, pre-refactor server answered %d (%s)",
				want[i].Name, got[i].Status, want[i].Status, want[i].Response)
			continue
		}
		if !bytes.Equal([]byte(got[i].Response), []byte(want[i].Response)) {
			t.Errorf("%s: response differs from the pre-refactor server\n got %s\nwant %s",
				want[i].Name, got[i].Response, want[i].Response)
		}
	}
	// The repeat pass must hit the cache and still serve the identical bytes.
	again := run()
	for i := range want {
		if again[i].Response != want[i].Response || again[i].Status != want[i].Status {
			t.Errorf("%s: cached replay diverged from golden", want[i].Name)
		}
	}
}
