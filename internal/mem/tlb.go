package mem

import "repro/internal/simerr"

// PageBits is the base-2 logarithm of the page size (4 KiB pages).
const PageBits = 12

// PageOf returns the virtual page number of an address.
func PageOf(addr uint64) uint64 { return addr >> PageBits }

// TLBConfig describes one TLB level.
type TLBConfig struct {
	Name    string
	Entries int
	// Ways is the associativity; 0 means fully associative.
	Ways int
	// HitLatency is the lookup cost in cycles (0 for L1 TLBs, whose
	// lookup overlaps the cache access).
	HitLatency uint64
}

type tlbEntry struct {
	page  uint64
	valid bool
	lru   uint64
}

// TLB is a translation lookaside buffer. Translation is identity-mapped
// (the simulator has no OS remapping), so a TLB only models the latency
// and reach of translation caching.
type TLB struct {
	cfg   TLBConfig
	sets  [][]tlbEntry
	ways  int
	stamp uint64

	Accesses uint64
	Misses   uint64
}

// NewTLB builds a TLB from its configuration.
func NewTLB(cfg TLBConfig) *TLB {
	ways := cfg.Ways
	if ways == 0 {
		ways = cfg.Entries // fully associative: one set
	}
	nsets := cfg.Entries / ways
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		// User-reachable through configuration; typed so run APIs
		// convert it to simerr.ErrInvalidConfig at the boundary.
		panic(simerr.New(simerr.ErrInvalidConfig, simerr.Snapshot{},
			"mem: TLB %q set count must be a positive power of two (entries %d, ways %d)",
			cfg.Name, cfg.Entries, ways))
	}
	t := &TLB{cfg: cfg, ways: ways, sets: make([][]tlbEntry, nsets)}
	for i := range t.sets {
		t.sets[i] = make([]tlbEntry, ways)
	}
	return t
}

// Config returns the TLB's configuration.
func (t *TLB) Config() TLBConfig { return t.cfg }

func (t *TLB) setOf(page uint64) []tlbEntry {
	return t.sets[page&uint64(len(t.sets)-1)]
}

// Lookup probes the TLB for the page containing addr, installing it on
// a miss, and reports whether the probe hit.
func (t *TLB) Lookup(addr uint64) bool {
	page := PageOf(addr)
	set := t.setOf(page)
	t.stamp++
	t.Accesses++
	for i := range set {
		if set[i].valid && set[i].page == page {
			set[i].lru = t.stamp
			return true
		}
	}
	t.Misses++
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = tlbEntry{page: page, valid: true, lru: t.stamp}
	return false
}

// Contains reports whether the page of addr is cached, without
// disturbing LRU state or statistics.
func (t *TLB) Contains(addr uint64) bool {
	page := PageOf(addr)
	for _, e := range t.setOf(page) {
		if e.valid && e.page == page {
			return true
		}
	}
	return false
}

// MissRate returns the fraction of lookups that missed.
func (t *TLB) MissRate() float64 {
	if t.Accesses == 0 {
		return 0
	}
	return float64(t.Misses) / float64(t.Accesses)
}

// WalkerConfig describes the shared second-level TLB and page-table
// walker that service L1 TLB misses.
type WalkerConfig struct {
	L2 TLBConfig
	// WalkLatency is the cost of a full page-table walk on an L2 miss.
	WalkLatency uint64
}

// Walker models the shared L2 TLB + page-table walker. An L1 TLB miss
// costs the L2 hit latency if the L2 TLB holds the page, and a full
// walk otherwise.
type Walker struct {
	l2  *TLB
	cfg WalkerConfig

	Walks uint64
}

// NewWalker builds the walker.
func NewWalker(cfg WalkerConfig) *Walker {
	return &Walker{l2: NewTLB(cfg.L2), cfg: cfg}
}

// L2 exposes the second-level TLB (for statistics).
func (w *Walker) L2() *TLB { return w.l2 }

// Resolve services an L1 TLB miss for addr and returns its latency in
// cycles.
func (w *Walker) Resolve(addr uint64) uint64 {
	if w.l2.Lookup(addr) {
		return w.cfg.L2.HitLatency
	}
	w.Walks++
	return w.cfg.L2.HitLatency + w.cfg.WalkLatency
}
