// Package cachesim implements a generic set-associative cache model used by
// both the synthetic silicon and the performance simulator. The two timing
// models instantiate it with different geometries and policies, which is one
// of the deliberate sources of simulator-versus-silicon divergence the paper
// observes (e.g., the kmeans L1 miss-rate discussion in Section 7.1).
package cachesim

import (
	"fmt"
	"math/bits"
)

// Config describes one cache.
type Config struct {
	SizeBytes int
	LineBytes int
	Assoc     int
	// Sectored caches fetch 32-byte sectors of a line independently, as
	// Volta's L1/L2 do; a sector miss on a resident line is cheaper than
	// a full line miss.
	Sectored bool
	// WriteAllocate controls whether stores allocate on miss.
	WriteAllocate bool
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0:
		return fmt.Errorf("cachesim: non-positive geometry %+v", c)
	case c.SizeBytes%(c.LineBytes*c.Assoc) != 0:
		return fmt.Errorf("cachesim: size %d not divisible by line*assoc", c.SizeBytes)
	case c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cachesim: line size %d not a power of two", c.LineBytes)
	case c.Sectored && c.LineBytes%32 != 0:
		return fmt.Errorf("cachesim: sectored cache needs 32B-divisible lines")
	}
	return nil
}

const sectorShift = 5 // 32-byte sectors

type line struct {
	tag     uint64
	valid   bool
	dirty   bool
	sectors uint8 // valid sectors when Sectored
	lastUse uint64
}

// Stats counts cache events.
type Stats struct {
	Accesses     uint64
	Hits         uint64
	Misses       uint64 // line misses
	SectorMisses uint64 // sector fills on resident lines
	Evictions    uint64
	Writebacks   uint64
}

// MissRate returns misses per access (0 when idle).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is one set-associative cache instance. It is not safe for
// concurrent use; each timing model owns its caches.
type Cache struct {
	cfg   Config
	lines []line // set-major: set i holds lines[i*Assoc : (i+1)*Assoc]
	assoc int
	nSets uint64
	// Line and set from an address without dividing: the line size is a
	// power of two, and so is the set count unless setPow2 is false (the
	// Volta L2 has 3,072 sets), which keeps one modulo.
	lineShift  uint
	offsetMask uint64
	setMask    uint64
	setPow2    bool
	clock      uint64
	stats      Stats
}

// New builds a cache; the configuration must validate.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nSets := cfg.SizeBytes / (cfg.LineBytes * cfg.Assoc)
	return &Cache{
		cfg:        cfg,
		lines:      make([]line, nSets*cfg.Assoc),
		assoc:      cfg.Assoc,
		nSets:      uint64(nSets),
		lineShift:  uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		offsetMask: uint64(cfg.LineBytes - 1),
		setMask:    uint64(nSets - 1),
		setPow2:    nSets&(nSets-1) == 0,
	}, nil
}

// Result describes one access outcome.
type Result struct {
	Hit        bool // line (and sector) already resident
	SectorFill bool // line resident but sector missing (Sectored only)
	Eviction   bool
	Writeback  bool
}

// Access performs one transaction at the given byte address.
func (c *Cache) Access(addr uint64, write bool) Result {
	c.clock++
	c.stats.Accesses++
	lineAddr := addr >> c.lineShift
	si := lineAddr & c.setMask
	if !c.setPow2 {
		si = lineAddr % c.nSets
	}
	base := int(si) * c.assoc
	set := c.lines[base : base+c.assoc]
	sectorBit := uint8(0)
	if c.cfg.Sectored {
		sectorBit = 1 << ((addr & c.offsetMask) >> sectorShift)
	}

	// Hit path.
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

	// Miss path.
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

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Reset invalidates all lines and clears counters.
func (c *Cache) Reset() {
	clear(c.lines)
	c.clock = 0
	c.stats = Stats{}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }
