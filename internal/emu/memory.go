// Package emu is the functional SIMT executor. It runs kernels thread-
// accurately — SIMT reconvergence stack, predication, barriers, shared and
// global memory — and records the per-warp dynamic instruction trace that
// the timing models replay. It is the framework's stand-in for NVBit
// instrumentation on real silicon.
package emu

// Memory is the device memory image a kernel executes against. Global and
// texture spaces are sparse word stores keyed by byte address; values are
// 64-bit words holding 32-bit data in their low half (loads and stores in
// this framework are 4-byte accesses addressed exactly). A word never
// written reads 0.
//
// A Memory belongs to one Run at a time and is not safe for concurrent
// use: loads mutate it too, because each space remembers the page it last
// touched.
type Memory struct {
	global, texture store
}

// NewMemory returns an empty device memory image.
func NewMemory() *Memory { return &Memory{} }

// LoadGlobal reads a word from global memory (0 when untouched).
func (m *Memory) LoadGlobal(addr uint64) uint64 { return m.global.load(addr) }

// StoreGlobal writes a word to global memory.
func (m *Memory) StoreGlobal(addr, v uint64) { m.global.store(addr, v) }

// StoreTexture writes a word to texture memory. Kernels cannot store to
// texture memory; setup code fills it.
func (m *Memory) StoreTexture(addr, v uint64) { m.texture.store(addr, v) }

// pages is the number of pages the image holds.
func (m *Memory) pages() int { return len(m.global.pages) + len(m.texture.pages) }

// PointerChase builds a pointer-chasing ring of n nodes with the given byte
// stride starting at base: mem[base + i*stride] holds the address of the
// next node, with a permutation step that defeats simple prefetching, as in
// the paper's memory-hierarchy microbenchmarks.
func (m *Memory) PointerChase(base uint64, n int, stride uint64) {
	if n <= 0 {
		return
	}
	// A fixed odd multiplier permutes the ring when n is a power of two;
	// otherwise fall back to a simple next-neighbour ring.
	perm := func(i int) int { return (i*17 + 7) % n }
	if n&(n-1) != 0 {
		perm = func(i int) int { return (i + 1) % n }
	}
	for i := 0; i < n; i++ {
		m.global.store(base+uint64(i)*stride, base+uint64(perm(i))*stride)
	}
}

// A page holds pageWords words. Word slots step by 4 bytes of address, so
// one page covers pageWords*4 bytes of 4-byte-aligned addresses. Images
// are dense enough that the page size barely moves their footprint (the
// Quick suites' largest is 1.2 MiB at 1, 4 or 32 KiB pages); 4 KiB pages
// keep the per-CTA zeroing of shared memory small.
const (
	pageBits  = 9
	pageWords = 1 << pageBits
	pageBytes = pageWords * 8 // storage per page
)

type page [pageWords]uint64

// store is a sparse word store with one word per byte address. The page
// key of an address is its word index (address / 4) divided by pageWords,
// with the address's low two bits in the key's top two bits, so addresses
// that differ only below 4-byte alignment land on different pages and the
// store is exact for every uint64 address.
//
// A one-page lookaside serves runs of accesses to one page without a map
// lookup. It remembers an absent page too, since kernels often read memory
// nothing wrote; store replaces it when it creates that page. The zero
// store's lookaside says page 0 is absent, which holds for an empty store.
type store struct {
	pages   map[uint64]*page
	last    *page // the page of lastKey; nil if none holds it
	lastKey uint64
}

func pageKey(addr uint64) uint64 { return addr>>(2+pageBits) | addr<<62 }

func pageSlot(addr uint64) uint64 { return addr >> 2 & (pageWords - 1) }

// find returns the page holding addr, or nil if none was written.
func (s *store) find(addr uint64) *page {
	if key := pageKey(addr); key != s.lastKey {
		s.last, s.lastKey = s.pages[key], key
	}
	return s.last
}

func (s *store) load(addr uint64) uint64 {
	if p := s.find(addr); p != nil {
		return p[pageSlot(addr)]
	}
	return 0
}

func (s *store) store(addr, v uint64) {
	p := s.find(addr)
	if p == nil {
		if v == 0 {
			return // an unwritten word already reads 0
		}
		if s.pages == nil {
			s.pages = make(map[uint64]*page)
		}
		p = new(page)
		s.pages[s.lastKey] = p
		s.last = p
	}
	p[pageSlot(addr)] = v
}

// zero clears every word and keeps the pages for reuse.
func (s *store) zero() {
	for _, p := range s.pages {
		*p = page{}
	}
}
