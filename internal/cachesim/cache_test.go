package cachesim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func small() Config {
	return Config{SizeBytes: 1024, LineBytes: 64, Assoc: 2, WriteAllocate: true}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{},
		{SizeBytes: 100, LineBytes: 64, Assoc: 2},                  // not divisible
		{SizeBytes: 1024, LineBytes: 60, Assoc: 2},                 // line not pow2
		{SizeBytes: 1024, LineBytes: 64, Assoc: 0},                 // zero assoc
		{SizeBytes: 1024, LineBytes: 16, Assoc: 2, Sectored: true}, // sector > line
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid: %+v", i, c)
		}
	}
	if err := small().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestHitMissBasics(t *testing.T) {
	c := mustNew(t, small())
	if r := c.Access(0, false); r.Hit {
		t.Error("cold access hit")
	}
	if r := c.Access(0, false); !r.Hit {
		t.Error("second access missed")
	}
	if r := c.Access(63, false); !r.Hit {
		t.Error("same-line access missed")
	}
	if r := c.Access(64, false); r.Hit {
		t.Error("next-line access hit")
	}
	s := c.Stats()
	if s.Accesses != 4 || s.Hits != 2 || s.Misses != 2 {
		t.Errorf("stats %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := mustNew(t, small()) // 8 sets, 2 ways; set stride = 64*8 = 512
	a0, a1, a2 := uint64(0), uint64(512), uint64(1024)
	c.Access(a0, false)
	c.Access(a1, false)
	c.Access(a0, false) // a0 now MRU
	r := c.Access(a2, false)
	if !r.Eviction {
		t.Error("filling a full set should evict")
	}
	if r := c.Access(a0, false); !r.Hit {
		t.Error("a0 (MRU) should have survived")
	}
	if r := c.Access(a1, false); r.Hit {
		t.Error("a1 should have been the LRU victim")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := mustNew(t, small())
	c.Access(0, true)
	c.Access(512, false)
	r := c.Access(1024, false)
	if !r.Writeback {
		t.Error("evicting a dirty line must write back")
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestNoWriteAllocate(t *testing.T) {
	cfg := small()
	cfg.WriteAllocate = false
	c := mustNew(t, cfg)
	c.Access(0, true)
	if r := c.Access(0, false); r.Hit {
		t.Error("write should not have allocated")
	}
}

func TestSectoredFills(t *testing.T) {
	cfg := Config{SizeBytes: 2048, LineBytes: 128, Assoc: 2, Sectored: true, WriteAllocate: true}
	c := mustNew(t, cfg)
	if r := c.Access(0, false); r.Hit || r.SectorFill {
		t.Error("cold sectored access should line-miss")
	}
	if r := c.Access(16, false); !r.Hit {
		t.Error("same-sector access should hit")
	}
	r := c.Access(32, false)
	if !r.SectorFill {
		t.Error("adjacent sector on a resident line should sector-fill")
	}
	if r := c.Access(32, false); !r.Hit {
		t.Error("filled sector should now hit")
	}
	s := c.Stats()
	if s.SectorMisses != 1 {
		t.Errorf("sector misses = %d, want 1", s.SectorMisses)
	}
}

func TestReset(t *testing.T) {
	c := mustNew(t, small())
	c.Access(0, true)
	c.Reset()
	if s := c.Stats(); s.Accesses != 0 {
		t.Error("reset did not clear stats")
	}
	if r := c.Access(0, false); r.Hit {
		t.Error("reset did not invalidate lines")
	}
}

// Property: a working set that fits in the cache has no misses after the
// first pass, regardless of access order.
func TestQuickResidentWorkingSet(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := mustNew(t, Config{SizeBytes: 4096, LineBytes: 64, Assoc: 4, WriteAllocate: true})
		// Working set: 16 lines in distinct sets (16 sets).
		lines := make([]uint64, 16)
		for i := range lines {
			lines[i] = uint64(i) * 64
		}
		for _, a := range lines {
			c.Access(a, false)
		}
		for i := 0; i < 200; i++ {
			a := lines[r.Intn(len(lines))]
			if !c.Access(a+uint64(r.Intn(64)), false).Hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: hits+misses always equals accesses.
func TestQuickStatsConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := mustNew(t, Config{SizeBytes: 1024, LineBytes: 32, Assoc: 2, Sectored: false, WriteAllocate: r.Intn(2) == 0})
		for i := 0; i < 500; i++ {
			c.Access(uint64(r.Intn(1<<14)), r.Intn(3) == 0)
		}
		s := c.Stats()
		return s.Hits+s.Misses == s.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: sectored caches never report more sector misses than accesses,
// and hits+misses+sectorMisses == accesses.
func TestQuickSectoredAccounting(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := mustNew(t, Config{SizeBytes: 2048, LineBytes: 128, Assoc: 2, Sectored: true, WriteAllocate: true})
		for i := 0; i < 500; i++ {
			c.Access(uint64(r.Intn(1<<13)), r.Intn(4) == 0)
		}
		s := c.Stats()
		return s.Hits+s.Misses+s.SectorMisses == s.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
