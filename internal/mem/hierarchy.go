package mem

// DRAMConfig models main memory: a fixed access latency plus a
// bandwidth limit expressed as the minimum cycle spacing between line
// transfers (FR-FCFS queueing collapses to a service-rate model).
type DRAMConfig struct {
	// Latency is the cycles from request to first data.
	Latency uint64
	// CyclesPerLine is the minimum spacing between line transfers,
	// modeling peak bandwidth (e.g. 64-byte lines at 16 GB/s on a
	// 3.2 GHz core is one line every ~12.8 cycles).
	CyclesPerLine uint64
}

// DRAM is the bandwidth-limited memory device.
type DRAM struct {
	cfg      DRAMConfig
	nextSlot uint64

	Reads  uint64
	Writes uint64
}

// NewDRAM builds the DRAM model.
func NewDRAM(cfg DRAMConfig) *DRAM {
	return &DRAM{cfg: cfg}
}

// Read returns the cycle a line read requested at cycle completes.
func (d *DRAM) Read(cycle uint64) uint64 {
	d.Reads++
	start := max(cycle, d.nextSlot)
	d.nextSlot = start + d.cfg.CyclesPerLine
	return start + d.cfg.Latency
}

// Write consumes a bandwidth slot for a line write-back (completion is
// fire-and-forget for the core).
func (d *DRAM) Write(cycle uint64) {
	d.Writes++
	start := max(cycle, d.nextSlot)
	d.nextSlot = start + d.cfg.CyclesPerLine
}

// QueueDelay reports how far the DRAM is booked past the given cycle —
// the queueing delay a new request would see before its latency.
func (d *DRAM) QueueDelay(cycle uint64) uint64 {
	if d.nextSlot <= cycle {
		return 0
	}
	return d.nextSlot - cycle
}

// Config holds the full memory-hierarchy configuration.
type Config struct {
	L1I, L1D, LLC CacheConfig
	ITLB, DTLB    TLBConfig
	Walker        WalkerConfig
	DRAM          DRAMConfig
	// NextLinePrefetch enables the L1I next-line prefetcher of Table 2.
	NextLinePrefetch bool
}

// DefaultConfig returns the Table 2 memory system: 32 KB 8-way L1I/L1D
// with 16 MSHRs, a 2 MiB 16-way LLC with 12 MSHRs, 32-entry fully
// associative L1 TLBs, a 1024-entry direct-mapped L2 TLB, and 16 GB/s
// DDR3-style memory.
func DefaultConfig() Config {
	return Config{
		L1I:  CacheConfig{Name: "L1I", SizeBytes: 32 << 10, Ways: 8, LineBytes: 64, MSHRs: 8, HitLatency: 1},
		L1D:  CacheConfig{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, LineBytes: 64, MSHRs: 16, HitLatency: 3},
		LLC:  CacheConfig{Name: "LLC", SizeBytes: 2 << 20, Ways: 16, LineBytes: 64, MSHRs: 12, HitLatency: 21},
		ITLB: TLBConfig{Name: "ITLB", Entries: 32, Ways: 0, HitLatency: 0},
		DTLB: TLBConfig{Name: "DTLB", Entries: 32, Ways: 0, HitLatency: 0},
		Walker: WalkerConfig{
			L2:          TLBConfig{Name: "L2TLB", Entries: 1024, Ways: 1, HitLatency: 8},
			WalkLatency: 60,
		},
		DRAM:             DRAMConfig{Latency: 90, CyclesPerLine: 13},
		NextLinePrefetch: true,
	}
}

// Hierarchy wires the caches, TLBs, and DRAM together and resolves the
// timing of instruction fetches, data accesses, and store drains.
type Hierarchy struct {
	cfg  Config
	l1i  *Cache
	l1d  *Cache
	llc  *Cache
	itlb *TLB
	dtlb *TLB
	walk *Walker
	dram *DRAM
}

// NewHierarchy builds the memory system.
func NewHierarchy(cfg Config) *Hierarchy {
	return NewHierarchyShared(cfg, NewCache(cfg.LLC), NewDRAM(cfg.DRAM))
}

// NewHierarchyShared builds one core's memory system — private L1
// caches and TLBs — on top of a shared last-level cache and DRAM.
// Multi-core systems give every core its own Hierarchy built over the
// same llc and dram, so cores contend for LLC capacity, LLC MSHRs, and
// memory bandwidth (the paper requires one TEA unit per physical core;
// the memory system below the L1s is shared).
func NewHierarchyShared(cfg Config, llc *Cache, dram *DRAM) *Hierarchy {
	return &Hierarchy{
		cfg:  cfg,
		l1i:  NewCache(cfg.L1I),
		l1d:  NewCache(cfg.L1D),
		llc:  llc,
		itlb: NewTLB(cfg.ITLB),
		dtlb: NewTLB(cfg.DTLB),
		walk: NewWalker(cfg.Walker),
		dram: dram,
	}
}

// Accessors for statistics and tests.
func (h *Hierarchy) L1I() *Cache     { return h.l1i }
func (h *Hierarchy) L1D() *Cache     { return h.l1d }
func (h *Hierarchy) LLC() *Cache     { return h.llc }
func (h *Hierarchy) ITLB() *TLB      { return h.itlb }
func (h *Hierarchy) DTLB() *TLB      { return h.dtlb }
func (h *Hierarchy) Walker() *Walker { return h.walk }
func (h *Hierarchy) DRAM() *DRAM     { return h.dram }

// llcFill services an L1 miss of the line at addr: access the LLC,
// going to DRAM on an LLC miss. It returns the cycle the line reaches
// the L1 and whether the LLC missed.
func (h *Hierarchy) llcFill(addr, cycle uint64) (uint64, bool) {
	res, ok := h.llc.Access(addr, cycle, false, func(_, c uint64) uint64 {
		return h.dram.Read(c)
	})
	if !ok {
		// LLC MSHRs exhausted: the request waits for a free MSHR. Model
		// the backpressure as the DRAM queue delay plus a retry window.
		retry := cycle + h.cfg.DRAM.CyclesPerLine + h.dram.QueueDelay(cycle)
		res, ok = h.llc.Access(addr, retry, false, func(_, c uint64) uint64 {
			return h.dram.Read(c)
		})
		if !ok {
			// Still full: serialize behind the newest outstanding fill.
			return h.dram.Read(retry), true
		}
		if res.WritebackVictim {
			h.dram.Write(cycle)
		}
		return res.Done, res.Miss
	}
	if res.WritebackVictim {
		h.dram.Write(cycle)
	}
	return res.Done, res.Miss
}

// FetchResult describes an instruction-fetch access.
type FetchResult struct {
	Done    uint64
	L1Miss  bool
	LLCMiss bool
	TLBMiss bool
}

// Fetch performs an instruction fetch of the line holding pc at cycle.
func (h *Hierarchy) Fetch(pc, cycle uint64) FetchResult {
	var r FetchResult
	start := cycle
	if !h.itlb.Lookup(pc) {
		r.TLBMiss = true
		start += h.walk.Resolve(pc)
	}
	fill := func(line, c uint64) uint64 {
		done, llcMiss := h.llcFill(line, c)
		if llcMiss {
			r.LLCMiss = true
		}
		return done
	}
	res, ok := h.l1i.Access(pc, start, false, fill)
	if !ok {
		// I-side MSHRs exhausted; retry after a line interval.
		res, ok = h.l1i.Access(pc, start+h.cfg.DRAM.CyclesPerLine, false, fill)
		if !ok {
			res = AccessResult{Done: start + h.cfg.DRAM.Latency, Miss: true}
		}
	}
	r.Done = res.Done
	r.L1Miss = res.Miss
	if res.Miss && h.cfg.NextLinePrefetch {
		// Next-line prefetch into the L1I, initiated when the demand
		// miss is detected so sequential fetch streams at DRAM
		// bandwidth instead of serializing at full miss latency. MSHR
		// pressure drops the request, as hardware prefetchers do.
		next := pc + uint64(h.cfg.L1I.LineBytes)
		if !h.l1i.Lookup(next) {
			h.l1i.Access(next, start, false, func(line, c uint64) uint64 {
				done, _ := h.llcFill(line, c)
				return done
			})
		}
	}
	return r
}

// DataResult describes a data-side access.
type DataResult struct {
	// Done is the cycle the data is available, or for a rejected access
	// the first cycle an L1D MSHR frees.
	Done    uint64
	L1Miss  bool
	LLCMiss bool
	// Rejected reports that the access could not allocate an L1 MSHR
	// and must be retried by the load/store unit.
	Rejected bool
}

// TranslateData performs the D-TLB lookup for addr at cycle, returning
// whether it missed and when translation completes.
func (h *Hierarchy) TranslateData(addr, cycle uint64) (miss bool, done uint64) {
	if h.dtlb.Lookup(addr) {
		return false, cycle + h.cfg.DTLB.HitLatency
	}
	return true, cycle + h.walk.Resolve(addr)
}

// Data performs a data access (load, store-allocate, or prefetch) of
// the line holding addr. Translation must already have completed; cycle
// is the post-translation access cycle.
func (h *Hierarchy) Data(addr, cycle uint64, write bool) DataResult {
	var r DataResult
	res, ok := h.l1d.Access(addr, cycle, write, func(line, c uint64) uint64 {
		done, llcMiss := h.llcFill(line, c)
		if llcMiss {
			r.LLCMiss = true
		}
		return done
	})
	if !ok {
		return DataResult{Done: res.Done, Rejected: true}
	}
	r.Done = res.Done
	r.L1Miss = res.Miss
	if res.WritebackVictim {
		h.dram.Write(cycle)
	}
	return r
}

// Contains reports whether the data-side hierarchy holds the line of
// addr in L1D (used by tests and prefetch-effect checks).
func (h *Hierarchy) Contains(addr uint64) bool { return h.l1d.Lookup(addr) }

// PrefetchLLC services a software prefetch: the line of addr is brought
// into the LLC (not the L1D, matching prefetch-to-L2 semantics), and
// the request contends for LLC MSHRs and DRAM bandwidth. It reports
// false when no MSHR is available; the load/store unit retries, as a
// software prefetch instruction occupies its LSU entry until issued.
func (h *Hierarchy) PrefetchLLC(addr, cycle uint64) bool {
	if h.llc.Lookup(addr) {
		return true
	}
	_, ok := h.llc.Access(addr, cycle, false, func(_, c uint64) uint64 {
		return h.dram.Read(c)
	})
	return ok
}
