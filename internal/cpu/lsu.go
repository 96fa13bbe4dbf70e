package cpu

import (
	"repro/internal/events"
	"repro/internal/isa"
)

// wordOf returns the 8-byte-aligned word address of a memory access;
// forwarding and ordering-violation checks match at word granularity.
func wordOf(addr uint64) uint64 { return addr &^ 7 }

// executeStores processes stores whose address generation completes
// this cycle: the effective address becomes visible to the forwarding
// logic, translation runs (an L1 D-TLB miss sets ST-TLB and delays the
// store's completion), and the ordering-violation check fires against
// younger loads that already obtained a value for the same word.
func (c *CPU) executeStores() {
	// Index-based iteration: a detected violation squashes a suffix of
	// the program-ordered store queue in place, so the slice may shrink
	// while we walk it.
	for i := 0; i < len(c.sq); i++ {
		st := c.sq[i]
		if !st.issued || st.completed || c.cycle < st.aguDone {
			continue
		}
		c.acted = true
		miss, tdone := c.hier.TranslateData(st.Dyn.MemAddr, st.aguDone)
		if miss {
			st.PSV = st.PSV.Set(events.STTLB)
		}
		st.translated = true
		st.tlbDone = tdone
		st.completed = true
		if tdone > st.aguDone {
			st.CompleteCycle = tdone
		} else {
			st.CompleteCycle = st.aguDone
		}
		c.checkOrderingViolation(st)
	}
}

// checkOrderingViolation finds the oldest younger load that read the
// word st writes before st's address was known — a memory ordering
// violation (FL-MO): the load is replayed and every µop younger than
// the load is squashed and refetched (Section 3).
func (c *CPU) checkOrderingViolation(st *UOp) {
	var victim *UOp
	w := wordOf(st.Dyn.MemAddr)
	for _, ld := range c.lq {
		if ld.Seq() <= st.Seq() || !ld.hasValue || ld.Op() == isa.OpPrefetch {
			continue
		}
		if wordOf(ld.Dyn.MemAddr) != w {
			continue
		}
		if ld.valueFromSeq >= int64(st.Seq()) {
			continue // the load already saw this store's data
		}
		if victim == nil || ld.Seq() < victim.Seq() {
			victim = ld
		}
	}
	if victim == nil {
		return
	}
	c.Stats.Violations++
	victim.PSV = victim.PSV.Set(events.FLMO)
	// Replay the load: it re-executes after the squash and will forward
	// from the now-executed store.
	victim.completed = false
	victim.hasValue = false
	victim.valueFromSeq = -1
	victim.aguDone = c.cycle + 1
	c.pendingLoads = append(c.pendingLoads, victim)
	c.squashYoungerThan(victim)
}

// executeLoads advances the pending-load state machines: address
// generation, translation (ST-TLB), store-to-load forwarding, and the
// cache access (ST-L1/ST-LLC), retrying on MSHR rejection.
func (c *CPU) executeLoads() {
	out := c.pendingLoads[:0]
	for _, ld := range c.pendingLoads {
		if ld.squashed {
			continue
		}
		if c.tryLoad(ld) {
			c.acted = true
		} else {
			out = append(out, ld)
		}
	}
	c.pendingLoads = out
}

// tryLoad attempts to make progress on one load; it reports whether the
// load finished (or no longer needs the pending list).
func (c *CPU) tryLoad(ld *UOp) bool {
	if c.cycle < ld.aguDone {
		return false
	}
	addr := ld.Dyn.MemAddr
	if !ld.translated {
		c.acted = true
		miss, tdone := c.hier.TranslateData(addr, ld.aguDone)
		if miss {
			ld.PSV = ld.PSV.Set(events.STTLB)
		}
		ld.translated = true
		ld.tlbDone = tdone
	}
	if c.cycle < ld.tlbDone {
		return false
	}

	if ld.Op() == isa.OpPrefetch {
		// Software prefetch: bring the line into the LLC and retire
		// without waiting for the data; retry while the LLC MSHRs are
		// exhausted.
		if !c.hier.PrefetchLLC(addr, c.cycle) {
			return false
		}
		ld.completed = true
		ld.hasValue = true
		ld.CompleteCycle = c.cycle + 1
		return true
	}

	if fwd := c.forwarder(ld, c.cycle); fwd != nil {
		ld.completed = true
		ld.hasValue = true
		ld.valueFromSeq = int64(fwd.Seq())
		ld.CompleteCycle = c.cycle + c.cfg.ForwardLatency
		return true
	}

	res := c.hier.Data(addr, c.cycle, false)
	if res.Rejected {
		ld.retryAt = res.Done // L1D MSHRs full: retry next cycle
		return false
	}
	if res.L1Miss {
		ld.PSV = ld.PSV.Set(events.STL1)
	}
	if res.LLCMiss {
		ld.PSV = ld.PSV.Set(events.STLLC)
	}
	ld.completed = true
	ld.hasValue = true
	ld.valueFromSeq = -1
	ld.CompleteCycle = res.Done
	return true
}

// forwarder returns the store that forwards its value to ld at cycle,
// or nil: the youngest older store with a known (generated) address to
// the same word. Older stores whose addresses are still unknown are
// invisible — the load speculates past them, which the violation check
// may later catch.
func (c *CPU) forwarder(ld *UOp, cycle uint64) *UOp {
	w := wordOf(ld.Dyn.MemAddr)
	var fwd *UOp
	for _, st := range c.sq {
		if st.Seq() >= ld.Seq() {
			continue
		}
		if !st.issued || cycle < st.aguDone {
			continue // address not generated yet: invisible to the LSU
		}
		if wordOf(st.Dyn.MemAddr) != w {
			continue
		}
		if fwd == nil || st.Seq() > fwd.Seq() {
			fwd = st
		}
	}
	return fwd
}

// drainStores writes committed stores to the memory system in program
// order, initiating at most one store per cycle; a store's SQ entry is
// recycled when its cache write completes, which is what backs up into
// the DR-SQ dispatch stall when store bandwidth is the bottleneck.
func (c *CPU) drainStores() {
	if len(c.drainQ) == 0 {
		return
	}
	st := c.drainQ[0]
	res := c.hier.Data(st.Dyn.MemAddr, c.cycle, true)
	if res.Rejected {
		st.retryAt = res.Done // MSHRs full: retry next cycle
		return
	}
	c.acted = true
	// Initiations are in order, one per cycle. The store deposits its
	// data into the cache (hit) or the MSHR's write buffer (miss) and
	// its SQ entry recycles at hit latency; a miss's line fill proceeds
	// in the background, holding the MSHR. Store bandwidth pressure
	// therefore surfaces as MSHR-full rejections stalling the drain,
	// which backs up into DR-SQ dispatch stalls.
	st.drainStarted = true
	st.drainDone = c.cycle + c.cfg.Mem.L1D.HitLatency
	c.drainQ = c.drainQ[1:]
}

// squashYoungerThan removes every µop younger than keep from the
// pipeline, rewinds the instruction stream to re-deliver them, and
// restarts fetch after the redirect penalty.
func (c *CPU) squashYoungerThan(keep *UOp) {
	seq := keep.Seq()
	removed := c.rob.squashYoungerThan(seq, c.squashScratch[:0])
	c.squashScratch = removed
	for _, u := range removed {
		u.squashed = true
		c.Stats.Squashed++
		c.hooks.Squash(u.Ref(), c.cycle)
	}
	for _, u := range c.fetchBuf {
		u.squashed = true
		c.Stats.Squashed++
		c.hooks.Squash(u.Ref(), c.cycle)
	}
	c.fetchNext = nil

	c.iqInt = dropYounger(c.iqInt, seq)
	c.iqMem = dropYounger(c.iqMem, seq)
	c.iqFP = dropYounger(c.iqFP, seq)
	c.lq = dropYounger(c.lq, seq)
	c.sq = dropYounger(c.sq, seq)
	c.pendingLoads = dropYounger(c.pendingLoads, seq)

	// Rebuild the register-writer map from the surviving ROB contents;
	// registers whose last writer was squashed or already committed
	// fall back to the architectural value (ready).
	for i := range c.lastWriter {
		c.lastWriter[i] = nil
	}
	for i := 0; i < c.rob.len(); i++ {
		u := c.rob.at(i)
		if d := u.Dyn.Static.Dests(); d != isa.NoReg && d != isa.RegZero {
			c.lastWriter[d] = u
		}
	}

	if c.awaitBranch != nil && c.awaitBranch.Seq() > seq {
		c.awaitBranch = nil
	}
	if c.blockDispatch != nil && c.blockDispatch.Seq() > seq {
		c.blockDispatch = nil
	}
	c.pendDRL1, c.pendDRTLB = false, false
	c.lastLine = invalidLine
	c.stream.Rewind(seq + 1)
	c.streamDry = false
	c.fetchResume = c.cycle + c.cfg.RedirectPenalty

	// All bookkeeping above is done with the squashed µops still intact;
	// now their shells recycle. The dynamic records stay in the stream
	// buffer — the rewind re-delivers them to fresh shells.
	for _, u := range removed {
		c.freeUOp(u)
	}
	for _, u := range c.fetchBuf {
		c.freeUOp(u)
	}
	c.fetchBuf = c.fetchBuf[:0]
}

func dropYounger(list []*UOp, seq uint64) []*UOp {
	out := list[:0]
	for _, u := range list {
		if u.Seq() <= seq {
			out = append(out, u)
		}
	}
	return out
}
