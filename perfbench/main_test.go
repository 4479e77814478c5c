package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestMetricListsMatchBenchmarkJSON keeps the harness and BENCHMARK.json
// in step: the same metric names, in the same order, with the same units.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		list string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness %d", c.list, len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the harness %s (%s)",
					c.list, i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != 3 || names[0] != "tune_validate" || names[1] != "serve_hot" || names[2] != "serve_cold" {
		t.Errorf("workloads %v, want tune_validate, serve_hot, serve_cold", names)
	}
}

func TestBuildResultInsistsOnEveryMetric(t *testing.T) {
	defs := []metricDef{{"a_s", "s"}, {"b", "count"}}
	ok := &outcome{correct: true, attempted: 3, values: map[string]float64{"a_s": 1.5, "b": 0}}
	res, err := buildResult(ok, defs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["a_s"] != (metric{1.5, "s"}) || len(res.Metrics) != 2 {
		t.Errorf("result metrics = %v", res.Metrics)
	}
	for name, bad := range map[string]*outcome{
		"missing":   {attempted: 1, values: map[string]float64{"a_s": 1}},
		"extra":     {attempted: 1, values: map[string]float64{"a_s": 1, "b": 2, "c": 3}},
		"nan":       {attempted: 1, values: map[string]float64{"a_s": math.NaN(), "b": 2}},
		"attempted": {attempted: 0, values: map[string]float64{"a_s": 1, "b": 2}},
	} {
		if _, err := buildResult(bad, defs); err == nil {
			t.Errorf("%s: buildResult accepted %v", name, bad.values)
		}
	}
}
