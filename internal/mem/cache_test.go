package mem

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func smallCache() *Cache {
	return NewCache(CacheConfig{
		Name: "T", SizeBytes: 1024, Ways: 2, LineBytes: 64, MSHRs: 4, HitLatency: 3,
	})
}

// immediateFill returns a fill function with a fixed miss penalty.
func immediateFill(penalty uint64) func(line, cycle uint64) uint64 {
	return func(_, c uint64) uint64 { return c + penalty }
}

func TestCacheColdMissThenHit(t *testing.T) {
	c := smallCache()
	r, ok := c.Access(0x1000, 100, false, immediateFill(50))
	if !ok || !r.Miss {
		t.Fatalf("cold access should be a miss: %+v ok=%v", r, ok)
	}
	if r.Done != 100+3+50 {
		t.Errorf("miss Done = %d, want 153", r.Done)
	}
	// Re-access after the fill: hit at hit latency.
	r, ok = c.Access(0x1000, 200, false, immediateFill(50))
	if !ok || r.Miss {
		t.Fatalf("second access should hit: %+v", r)
	}
	if r.Done != 203 {
		t.Errorf("hit Done = %d, want 203", r.Done)
	}
}

func TestCacheSecondaryMissWaitsForFill(t *testing.T) {
	c := smallCache()
	r1, _ := c.Access(0x1000, 100, false, immediateFill(50))
	// Access the same line before the fill completes: must wait for it,
	// count as a miss, and not consume another MSHR.
	r2, ok := c.Access(0x1008, 110, false, immediateFill(50))
	if !ok || !r2.Miss {
		t.Fatalf("secondary access should be a merged miss: %+v", r2)
	}
	if r2.Done != r1.Done {
		t.Errorf("secondary miss Done = %d, want fill completion %d", r2.Done, r1.Done)
	}
	if got, _ := c.activeMSHRs(110); got != 1 {
		t.Errorf("secondary miss allocated an MSHR: active=%d, want 1", got)
	}
}

func TestCacheSameLineDifferentOffsetsHit(t *testing.T) {
	c := smallCache()
	c.Access(0x2000, 0, false, immediateFill(10))
	r, ok := c.Access(0x203F, 100, false, immediateFill(10))
	if !ok || r.Miss {
		t.Errorf("same-line access should hit: %+v", r)
	}
}

func TestCacheMSHRExhaustion(t *testing.T) {
	c := smallCache() // 4 MSHRs
	for i := 0; i < 4; i++ {
		_, ok := c.Access(uint64(i)*0x10000, 10, false, immediateFill(500))
		if !ok {
			t.Fatalf("miss %d rejected with free MSHRs", i)
		}
	}
	if _, ok := c.Access(0x90000, 11, false, immediateFill(500)); ok {
		t.Fatalf("fifth concurrent miss should be rejected")
	}
	if c.MSHRFull != 1 {
		t.Errorf("MSHRFull = %d, want 1", c.MSHRFull)
	}
	// After fills complete, MSHRs recycle.
	if _, ok := c.Access(0x90000, 1000, false, immediateFill(500)); !ok {
		t.Fatalf("miss after fills completed should be accepted")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way cache: three blocks mapping to the same set evict the LRU.
	c := smallCache()
	sets := uint64(c.Config().Sets())
	line := uint64(c.Config().LineBytes)
	a0 := uint64(0)
	a1 := sets * line     // same set, different tag
	a2 := 2 * sets * line // same set, third tag
	c.Access(a0, 0, false, immediateFill(0))
	c.Access(a1, 1, false, immediateFill(0))
	c.Access(a0, 2, false, immediateFill(0)) // touch a0: a1 becomes LRU
	c.Access(a2, 3, false, immediateFill(0)) // evicts a1
	if !c.Lookup(a0) || !c.Lookup(a2) {
		t.Errorf("recently used lines were evicted")
	}
	if c.Lookup(a1) {
		t.Errorf("LRU line survived eviction")
	}
}

func TestCacheDirtyWriteback(t *testing.T) {
	c := smallCache()
	sets := uint64(c.Config().Sets())
	line := uint64(c.Config().LineBytes)
	c.Access(0, 0, true, immediateFill(0)) // dirty
	c.Access(sets*line, 1, false, immediateFill(0))
	r, _ := c.Access(2*sets*line, 2, false, immediateFill(0)) // evicts dirty block 0
	if !r.WritebackVictim {
		t.Errorf("eviction of dirty line should report a write-back")
	}
	r, _ = c.Access(3*sets*line, 1000, false, immediateFill(0)) // evicts clean line
	if r.WritebackVictim {
		t.Errorf("eviction of clean line should not report a write-back")
	}
}

func TestCacheMissRateSmallWorkingSet(t *testing.T) {
	c := smallCache()
	for pass := 0; pass < 10; pass++ {
		for a := uint64(0); a < 512; a += 64 {
			c.Access(a, uint64(pass*100), false, immediateFill(0))
		}
	}
	// 8 lines in a 1 KiB cache: only the first pass misses.
	if got := c.MissRate(); got > 0.11 {
		t.Errorf("miss rate = %v, want <= 0.1 for resident working set", got)
	}
}

func TestCacheHitNeverSlowerThanMiss(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		c := smallCache()
		cycle := uint64(0)
		for i := 0; i < 200; i++ {
			addr := uint64(rng.IntN(64)) * 64
			cycle += uint64(rng.IntN(80))
			r, ok := c.Access(addr, cycle, rng.IntN(2) == 0, immediateFill(uint64(rng.IntN(100))))
			if !ok {
				continue
			}
			if r.Done < cycle+c.Config().HitLatency {
				return false // data can never arrive before the hit latency
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCachePanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for non-power-of-two sets")
		}
	}()
	NewCache(CacheConfig{Name: "bad", SizeBytes: 96, Ways: 1, LineBytes: 32, MSHRs: 1, HitLatency: 1})
}

func TestBlockOf(t *testing.T) {
	c := smallCache()
	if c.BlockOf(0) != 0 || c.BlockOf(63) != 0 || c.BlockOf(64) != 1 || c.BlockOf(129) != 2 {
		t.Errorf("BlockOf wrong: %d %d %d %d",
			c.BlockOf(0), c.BlockOf(63), c.BlockOf(64), c.BlockOf(129))
	}
}

// TestAccessReportsRetryCycle pins the retry cycle a rejected Access
// reports, which the core sleeps until: with every MSHR holding an
// outstanding fill, the rejection names the earliest fill's completion,
// the same access is rejected with the same report on every cycle
// before it, and it is accepted on that cycle. A tag hit, a merge with
// an in-flight fill and a miss with an MSHR free are never rejected.
func TestAccessReportsRetryCycle(t *testing.T) {
	line := uint64(64)
	// saturate misses on n of lines 1-4 (sets 1-4) at cycle 10; with
	// all four, the fills complete at 313, 113, 413 and 213.
	saturate := func(c *Cache, n int) {
		for i, penalty := range []uint64{300, 100, 400, 200}[:n] {
			if _, ok := c.Access(uint64(i+1)*line, 10, false, immediateFill(penalty)); !ok {
				t.Fatalf("setup miss %d rejected", i)
			}
		}
	}

	c := smallCache() // 8 sets, 2 ways, 4 MSHRs, hit latency 3
	saturate(c, 4)
	const addr, retry = 0x9000, 113
	for cy := uint64(10); cy < retry; cy++ {
		if r, ok := c.Access(addr, cy, false, immediateFill(50)); ok || r.Done != retry {
			t.Fatalf("access at %d: ok=%v Done=%d, want rejected until %d", cy, ok, r.Done, retry)
		}
	}
	if c.MSHRFull != retry-10 {
		t.Errorf("MSHRFull = %d, want one per rejected attempt (%d)", c.MSHRFull, retry-10)
	}
	if r, ok := c.Access(addr, retry, false, immediateFill(50)); !ok || r.Done != retry+3+50 {
		t.Errorf("access at the reported cycle: ok=%v Done=%d, want a miss done at %d", ok, r.Done, retry+3+50)
	}

	setStride := uint64(c.Config().Sets()) * line
	a, b, cc := uint64(0), setStride, 2*setStride // one set, three tags
	for _, tc := range []struct {
		name  string
		setup func(c *Cache)
		done  uint64 // at cycle 20
	}{
		{"tag hit", func(c *Cache) {
			c.Access(a, 0, false, immediateFill(0))
			saturate(c, 4)
		}, 23},
		{"in-flight merge", func(c *Cache) {
			c.Access(a, 0, false, immediateFill(500))
			c.Access(b, 1, false, immediateFill(500))
			c.Access(cc, 2, false, immediateFill(500)) // evicts a's line
			saturate(c, 1)
		}, 503},
		{"MSHR free", func(c *Cache) { saturate(c, 3) }, 73},
	} {
		c := smallCache()
		tc.setup(c)
		if r, ok := c.Access(a, 20, false, immediateFill(50)); !ok || r.Done != tc.done {
			t.Errorf("%s: ok=%v Done=%d, want accepted and done at %d", tc.name, ok, r.Done, tc.done)
		}
	}
}
