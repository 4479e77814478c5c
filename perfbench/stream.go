package main

import (
	"encoding/json"
	"fmt"
	"strings"

	"accelwattch/internal/core"
	"accelwattch/internal/serve"
	"accelwattch/internal/tune"
	"accelwattch/internal/zoo"
)

// route is one way a request can address a zoo entry: by entry name, by
// architecture alias, or (the default entry) with no routing field.
type route struct {
	model, arch string
	entry       *zoo.Entry
}

// routesOf lists every route the manifest's entries answer on.
func routesOf(set *zoo.Set) []route {
	var rs []route
	for _, e := range set.Entries {
		if e.Name == set.Default {
			rs = append(rs, route{entry: e})
		}
		family, _, _ := strings.Cut(e.Arch, "-")
		rs = append(rs, route{model: e.Name, entry: e}, route{arch: family, entry: e})
	}
	return rs
}

// request is one generated HTTP request and the entry that must answer it.
type request struct {
	path    string // "/estimate" or "/sweep"
	body    []byte
	entry   *zoo.Entry
	variant tune.Variant
}

// splitmix is a tiny counter-based generator: every request's fields derive
// from (seed, stream, index) alone, so any worker can build request i and
// the same seed always yields the same bytes.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

// Streams of the generator. The body streams draw their cycle counts from
// ranges of their own, so bodies of different streams never share a cache
// key; the other streams pick routes, pool members and checked samples.
const (
	streamCold   = iota + 1 // serve_cold: every body distinct, one in four a sweep
	streamFill              // serve_hot warm-up: distinct bodies that fill each LRU shard
	streamPool              // serve_hot: the resident pool
	streamRoute             // the route of a cold request or pool member
	streamPick              // the pool member a timed serve_hot request sends
	streamSample            // which responses are checked byte for byte
)

// generator builds seeded request bodies over a zoo's routes.
type generator struct {
	seed   int64
	routes []route
}

func newGenerator(seed int64, set *zoo.Set) *generator {
	return &generator{seed: seed, routes: routesOf(set)}
}

func (g *generator) rng(stream int, i uint64) splitmix {
	s := splitmix(uint64(g.seed)*0x9e3779b97f4a7c15 ^ uint64(stream)<<56 ^ i)
	s.next()
	return s
}

// build renders request i of a stream. The cycle count carries the index,
// which makes every body of a stream distinct; sweep selects /sweep.
func (g *generator) build(stream int, i uint64, rt route, sweep bool) request {
	r := g.rng(stream, i)
	v := tune.Variants()[r.intn(int(tune.NumVariants))]
	arch := rt.entry.Model(v).Arch
	est := serve.EstimateRequest{
		Name:      fmt.Sprintf("k%d", i),
		Model:     rt.model,
		Arch:      rt.arch,
		Variant:   v.String(),
		Counts:    map[string]float64{},
		Cycles:    float64(uint64(stream)<<40 + 1_000_000 + i),
		ActiveSMs: float64(1 + r.intn(arch.NumSMs)),
		AvgLanes:  float64(1 + r.intn(32)),
	}
	for n := 3 + r.intn(6); n > 0; n-- {
		c := core.Component(r.intn(core.NumDynComponents))
		est.Counts[c.String()] = float64(1 + r.intn(50_000_000))
	}
	if r.intn(2) == 0 {
		est.ClockMHz = float64(int(arch.MinClockMHz) + r.intn(int(arch.MaxClockMHz-arch.MinClockMHz)))
	}
	if r.intn(2) == 0 {
		est.Mix = core.MixCategory(r.intn(int(core.NumMixCategories))).String()
	}
	if r.intn(4) == 0 {
		est.TemperatureC = float64(40 + r.intn(50))
	}
	if !sweep {
		return request{path: "/estimate", body: mustJSON(est), entry: rt.entry, variant: v}
	}
	lo := float64(int(arch.MinClockMHz) + r.intn(200))
	sw := serve.SweepRequest{EstimateRequest: est, MinMHz: lo, MaxMHz: arch.MaxClockMHz,
		StepMHz: float64(25 + r.intn(100))}
	return request{path: "/sweep", body: mustJSON(sw), entry: rt.entry, variant: v}
}

// cold is request i of the serve_cold stream: a seeded route, one request
// in four a /sweep.
func (g *generator) cold(i uint64) request {
	r := g.rng(streamRoute, i)
	return g.build(streamCold, i, g.routes[r.intn(len(g.routes))], i%4 == 3)
}

// fill is request i of the serve_hot warm-up fill: /estimate bodies dealt
// round-robin over the routes of each entry in turn, so entry e receives
// requests [e*perEntry, (e+1)*perEntry).
func (g *generator) fill(set *zoo.Set, perEntry, i uint64) request {
	e := set.Entries[i/perEntry]
	var own []route
	for _, rt := range g.routes {
		if rt.entry == e {
			own = append(own, rt)
		}
	}
	return g.build(streamFill, i, own[i%uint64(len(own))], false)
}

// pool is member j of the serve_hot resident pool.
func (g *generator) pool(j uint64) request {
	r := g.rng(streamRoute, 1<<62|j)
	return g.build(streamPool, j, g.routes[r.intn(len(g.routes))], false)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always marshal
	}
	return b
}

// expected computes the single-shot reference bytes for a request: the
// body awserve must return, byte for byte.
func expected(req request) ([]byte, error) {
	m := req.entry.Model(req.variant)
	if req.path == "/sweep" {
		return serve.SweepOnce(m, req.body)
	}
	return serve.EstimateOnce(m, req.body)
}
