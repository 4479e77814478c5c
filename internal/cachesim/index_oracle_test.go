package cachesim

import (
	"math/rand"
	"testing"
)

// divCache keeps the indexing and the lookup Cache used before: line, set
// and sector by division and modulo, one slice per set, and two walks of
// the set on a miss, one for the tag and one for the victim (the first
// invalid line, else the least recently used). Cache walks a set once.
type divCache struct {
	cfg   Config
	sets  [][]line
	clock uint64
	stats Stats
}

func newDivCache(cfg Config) *divCache {
	nSets := cfg.SizeBytes / (cfg.LineBytes * cfg.Assoc)
	sets := make([][]line, nSets)
	for i := range sets {
		sets[i] = make([]line, cfg.Assoc)
	}
	return &divCache{cfg: cfg, sets: sets}
}

func (c *divCache) Access(addr uint64, write bool) Result {
	c.clock++
	c.stats.Accesses++
	lineAddr := addr / uint64(c.cfg.LineBytes)
	set := c.sets[lineAddr%uint64(len(c.sets))]
	sectorBit := uint8(0)
	if c.cfg.Sectored {
		sectorBit = 1 << ((addr % uint64(c.cfg.LineBytes)) / 32)
	}
	for i := range set {
		ln := &set[i]
		if ln.valid && ln.tag == lineAddr {
			ln.lastUse = c.clock
			if write {
				ln.dirty = true
			}
			if c.cfg.Sectored && ln.sectors&sectorBit == 0 {
				ln.sectors |= sectorBit
				c.stats.SectorMisses++
				return Result{SectorFill: true}
			}
			c.stats.Hits++
			return Result{Hit: true}
		}
	}
	c.stats.Misses++
	if write && !c.cfg.WriteAllocate {
		return Result{}
	}
	victim := &set[0]
	for i := range set {
		ln := &set[i]
		if !ln.valid {
			victim = ln
			break
		}
		if ln.lastUse < victim.lastUse {
			victim = ln
		}
	}
	res := Result{}
	if victim.valid {
		res.Eviction = true
		c.stats.Evictions++
		if victim.dirty {
			res.Writeback = true
			c.stats.Writebacks++
		}
	}
	*victim = line{tag: lineAddr, valid: true, dirty: write, sectors: sectorBit, lastUse: c.clock}
	return res
}

// The shift-and-mask indexing and the one-walk lookup must give every
// access the result, and the cache the statistics, that divCache gives,
// whether the set count is a power of two or not. In the reset subtests
// the cache is Reset halfway and compared with a fresh divCache from
// there on.
func TestIndexingMatchesDivision(t *testing.T) {
	geoms := []struct {
		name string
		cfg  Config
	}{
		{"small", small()},
		{"volta-l1", Config{SizeBytes: 128 << 10, LineBytes: 128, Assoc: 4, Sectored: true}},
		{"volta-l2-3072-sets", Config{SizeBytes: 6 << 20, LineBytes: 128, Assoc: 16, Sectored: true, WriteAllocate: true}},
		{"3-sets", Config{SizeBytes: 3 * 64 * 4, LineBytes: 64, Assoc: 4, Sectored: true, WriteAllocate: true}},
		{"12-sets-256B", Config{SizeBytes: 12 * 256 * 2, LineBytes: 256, Assoc: 2, Sectored: true}},
		{"direct-mapped", Config{SizeBytes: 32 * 32, LineBytes: 32, Assoc: 1, WriteAllocate: true}},
	}
	for _, g := range geoms {
		for _, reset := range []bool{false, true} {
			name := g.name
			if reset {
				name += "/reset"
			}
			t.Run(name, func(t *testing.T) {
				c := mustNew(t, g.cfg)
				ref := newDivCache(g.cfg)
				rng := rand.New(rand.NewSource(int64(len(g.name))))
				// Twice the cache's bytes as a working set gives hits,
				// sector fills and evictions; one access in eight goes
				// anywhere.
				span := uint64(2 * g.cfg.SizeBytes)
				const n = 200000
				for i := 0; i < n; i++ {
					if reset && i == n/2 {
						c.Reset()
						ref = newDivCache(g.cfg)
					}
					addr := uint64(rng.Int63n(int64(span)))
					if rng.Intn(8) == 0 {
						addr = rng.Uint64()
					}
					write := rng.Intn(4) == 0
					if got, want := c.Access(addr, write), ref.Access(addr, write); got != want {
						t.Fatalf("access %d (%#x, write=%v): %+v, divCache %+v", i, addr, write, got, want)
					}
				}
				if got, want := c.Stats(), ref.stats; got != want {
					t.Errorf("stats %+v, divCache %+v", got, want)
				}
				if s := ref.stats; s.Hits == 0 || s.Evictions == 0 || g.cfg.Sectored && s.SectorMisses == 0 {
					t.Errorf("stream too weak to compare: %+v", ref.stats)
				}
			})
		}
	}
}
