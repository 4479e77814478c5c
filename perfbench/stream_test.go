package main

import (
	"bytes"
	"testing"

	"accelwattch/internal/cli"
	"accelwattch/internal/serve"
	"accelwattch/internal/zoo"
)

func testSet(t *testing.T) *zoo.Set {
	t.Helper()
	set, err := cli.BuildModelSet("../examples/models/manifest.json", 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestSameSeedSameRequestBytes(t *testing.T) {
	set := testSet(t)
	a, b, other := newGenerator(7, set), newGenerator(7, set), newGenerator(8, set)
	hotA, hotB := shapeOf(true, a, set), shapeOf(true, b, set)
	coldA, coldB := shapeOf(false, a, set), shapeOf(false, b, set)
	differs := 0
	for _, i := range []uint64{0, 1, 2, 3, 4095, 9000, 70000, 123456} {
		for _, pair := range [][2]request{{hotA.req(i), hotB.req(i)}, {coldA.req(i), coldB.req(i)}} {
			if pair[0].path != pair[1].path || !bytes.Equal(pair[0].body, pair[1].body) {
				t.Fatalf("request %d differs between two generators with seed 7:\n%s\n%s", i, pair[0].body, pair[1].body)
			}
		}
		if !bytes.Equal(a.cold(i).body, other.cold(i).body) {
			differs++
		}
		if a.sampled(i) != b.sampled(i) {
			t.Fatalf("sample choice for request %d depends on more than the seed", i)
		}
	}
	if differs == 0 {
		t.Error("seeds 7 and 8 generated the same cold requests")
	}
}

func TestColdStreamIsDistinctWithOneSweepInFour(t *testing.T) {
	set := testSet(t)
	g := newGenerator(3, set)
	keys := map[string]bool{}
	routes := map[string]bool{}
	sweeps := 0
	const n = 4000
	for i := uint64(0); i < n; i++ {
		r := g.cold(i)
		var key string
		if r.path == "/sweep" {
			sweeps++
			req, err := serve.DecodeSweepRequest(r.body)
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			key = req.CacheKey()
			routes[req.Model+"|"+req.Arch] = true
		} else {
			req, err := serve.DecodeEstimateRequest(r.body)
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			key = req.CacheKey()
			routes[req.Model+"|"+req.Arch] = true
		}
		if keys[key] {
			t.Fatalf("request %d repeats an earlier cache key", i)
		}
		keys[key] = true
	}
	if sweeps != n/4 {
		t.Errorf("%d sweeps in %d requests, want one in four", sweeps, n)
	}
	// Three entries, each by name and by alias, plus the unrouted default.
	if len(routes) != 7 {
		t.Errorf("cold stream used %d routes, want 7: %v", len(routes), routes)
	}
}

func TestHotShapeFillsThenRepeatsThePool(t *testing.T) {
	set := testSet(t)
	g := newGenerator(5, set)
	shape := shapeOf(true, g, set)
	perEntry := uint64(lruCap + fillExtra)
	seen := map[string]int{}
	for i := uint64(0); i < perEntry*uint64(len(set.Entries)); i++ {
		r := shape.req(i)
		if r.entry != set.Entries[i/perEntry] {
			t.Fatalf("fill request %d routes to %s", i, r.entry.Name)
		}
		seen[string(r.body)]++
	}
	for body, n := range seen {
		if n > 1 {
			t.Fatalf("fill body repeats %d times: %s", n, body)
		}
	}
	if shape.warm < ledgerCap {
		t.Errorf("warm-up of %d requests cannot wrap the %d-event ledger", shape.warm, ledgerCap)
	}
	pool := map[string]bool{}
	for j := uint64(0); j < hotPool; j++ {
		pool[string(g.pool(j).body)] = true
	}
	for i := shape.warm - 10; i < shape.warm+2000; i++ {
		if r := shape.req(i); !pool[string(r.body)] || r.path != "/estimate" {
			t.Fatalf("request %d after the fill is not a pool estimate", i)
		}
	}
}

func TestGeneratedRequestsHaveReferenceAnswers(t *testing.T) {
	set := testSet(t)
	g := newGenerator(11, set)
	for i := uint64(0); i < 400; i++ {
		for _, r := range []request{g.cold(i), g.fill(set, lruCap+fillExtra, i), g.pool(i % hotPool)} {
			body, err := expected(r)
			if err != nil {
				t.Fatalf("%s request %d: %v\n%s", r.path, i, err, r.body)
			}
			if len(body) == 0 {
				t.Fatalf("%s request %d: empty reference body", r.path, i)
			}
		}
	}
}
