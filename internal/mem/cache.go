// Package mem models the memory hierarchy of the simulated core:
// set-associative write-back caches with MSHRs, L1 instruction and data
// TLBs backed by a shared L2 TLB and a page-table-walker latency model,
// and a bandwidth-limited DRAM with FR-FCFS-style queueing delay. The
// configuration follows Table 2 of the paper.
package mem

import (
	"math/bits"

	"repro/internal/simerr"
)

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name       string
	SizeBytes  int
	Ways       int
	LineBytes  int
	MSHRs      int    // maximum outstanding misses
	HitLatency uint64 // cycles from access to data on a hit
}

// Sets returns the number of sets implied by the configuration.
func (c CacheConfig) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // last-use stamp; higher = more recent
}

type mshr struct {
	block uint64
	ready uint64 // cycle the fill completes
}

// Cache is one set-associative write-back, write-allocate cache with a
// finite number of MSHRs. Timing is resolved at access time: an access
// returns the cycle its data becomes available, and misses occupy an
// MSHR until their fill completes.
type Cache struct {
	cfg      CacheConfig
	sets     [][]line
	mshrs    []mshr
	stamp    uint64
	shift    uint // byte address to block: the line-offset bits
	tagShift uint // block to tag: the set-index bits
	setMsk   uint64

	// Stats counters. MSHRFull counts rejected Access calls; the core
	// does not repeat a rejected access before the retry cycle the
	// rejection reported, so it counts attempts, not cycles.
	Accesses uint64
	Misses   uint64
	MSHRFull uint64
	// FillLatencySum accumulates (Done - access cycle) over primary
	// misses, for average-fill-latency statistics.
	FillLatencySum uint64
	PrimaryMisses  uint64
}

// NewCache builds a cache from its configuration.
func NewCache(cfg CacheConfig) *Cache {
	sets := cfg.Sets()
	if sets <= 0 || sets&(sets-1) != 0 {
		// User-reachable through configuration; typed so run APIs
		// convert it to simerr.ErrInvalidConfig at the boundary.
		panic(simerr.New(simerr.ErrInvalidConfig, simerr.Snapshot{},
			"mem: cache %q set count must be a positive power of two (size %d, ways %d, line %d)",
			cfg.Name, cfg.SizeBytes, cfg.Ways, cfg.LineBytes))
	}
	c := &Cache{
		cfg:      cfg,
		sets:     make([][]line, sets),
		shift:    uint(bits.Len(uint(cfg.LineBytes)) - 1),
		tagShift: uint(bits.Len(uint(sets - 1))),
		setMsk:   uint64(sets - 1),
	}
	for i := range c.sets {
		c.sets[i] = make([]line, cfg.Ways)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// BlockOf returns the block (line) address of a byte address.
func (c *Cache) BlockOf(addr uint64) uint64 { return addr >> c.shift }

func (c *Cache) setOf(block uint64) []line { return c.sets[block&c.setMsk] }
func (c *Cache) tagOf(block uint64) uint64 { return block >> c.tagShift }

// Lookup reports whether the block is present without touching LRU
// state or statistics (used by tests and the software-prefetch probe).
func (c *Cache) Lookup(addr uint64) bool {
	block := c.BlockOf(addr)
	set := c.setOf(block)
	tag := c.tagOf(block)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// activeMSHRs counts fills still outstanding at the given cycle,
// recycles completed entries, and returns the first cycle an
// outstanding fill completes and frees its MSHR.
func (c *Cache) activeMSHRs(cycle uint64) (n int, free uint64) {
	free = ^uint64(0)
	for i := 0; i < len(c.mshrs); {
		if r := c.mshrs[i].ready; r > cycle {
			n++
			free = min(free, r)
			i++
		} else {
			c.mshrs[i] = c.mshrs[len(c.mshrs)-1]
			c.mshrs = c.mshrs[:len(c.mshrs)-1]
		}
	}
	return n, free
}

// pendingFill returns the ready cycle of an outstanding fill of block,
// if any (a secondary miss merges with it).
func (c *Cache) pendingFill(block uint64) (uint64, bool) {
	for _, m := range c.mshrs {
		if m.block == block {
			return m.ready, true
		}
	}
	return 0, false
}

// AccessResult describes the outcome of a cache access.
type AccessResult struct {
	// Done is the cycle the data is available to the requester; for a
	// rejected access, the first cycle an MSHR frees.
	Done uint64
	// Miss reports whether the access missed in this cache.
	Miss bool
	// WritebackVictim reports whether a dirty line was evicted.
	WritebackVictim bool
}

// Access performs a read or write-allocate access to the block holding
// addr at the given cycle. fill is invoked on a (primary) miss with the
// address of the line and must return the cycle the next level delivers
// it. Access returns ok=false, allocating nothing, if the miss cannot
// allocate an MSHR; Done then reports the first cycle an MSHR frees.
// Until that cycle the same access is rejected again, provided no other
// access changes the cache in between; the caller must retry.
func (c *Cache) Access(addr, cycle uint64, write bool, fill func(line, cycle uint64) uint64) (AccessResult, bool) {
	block := c.BlockOf(addr)
	set := c.setOf(block)
	tag := c.tagOf(block)
	c.stamp++

	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.Accesses++
			set[i].lru = c.stamp
			if write {
				set[i].dirty = true
			}
			// The line is installed when its fill is initiated, so a
			// tag hit may be a secondary miss on an in-flight fill: the
			// data is not available before the fill completes.
			if ready, pending := c.pendingFill(block); pending && ready > cycle+c.cfg.HitLatency {
				c.Misses++
				return AccessResult{Done: ready, Miss: true}, true
			}
			return AccessResult{Done: cycle + c.cfg.HitLatency}, true
		}
	}

	// Tag miss. If the block was evicted while its fill is still in
	// flight, merge with the outstanding fill instead of allocating a
	// fresh MSHR. Known quirk, kept as is: the entry may be a fill that
	// completed long ago but is still listed (entries leave the list
	// only when a primary miss counts MSHRs), so a line evicted by set
	// conflicts comes back at hit latency without a fill.
	if ready, merged := c.pendingFill(block); merged {
		c.Accesses++
		c.Misses++
		c.install(block, write)
		return AccessResult{Done: max(ready, cycle+c.cfg.HitLatency), Miss: true}, true
	}

	n, free := c.activeMSHRs(cycle)
	if n >= c.cfg.MSHRs {
		c.MSHRFull++
		return AccessResult{Done: free}, false
	}

	c.Accesses++
	c.Misses++
	ready := fill(block<<c.shift, cycle+c.cfg.HitLatency)
	c.PrimaryMisses++
	c.FillLatencySum += ready - cycle
	c.mshrs = append(c.mshrs, mshr{block: block, ready: ready})
	victimDirty := c.install(block, write)
	return AccessResult{Done: ready, Miss: true, WritebackVictim: victimDirty}, true
}

// install places the block in its set, evicting the LRU way, and
// reports whether the victim was dirty (needs write-back).
func (c *Cache) install(block uint64, write bool) bool {
	set := c.setOf(block)
	tag := c.tagOf(block)
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
	dirty := set[victim].valid && set[victim].dirty
	set[victim] = line{tag: tag, valid: true, dirty: write, lru: c.stamp}
	return dirty
}

// MissRate returns the fraction of accesses that missed.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}
