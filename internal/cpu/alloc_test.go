package cpu_test

import (
	"runtime"
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/workloads"
)

// runMallocs counts the heap allocations of a bare run of p, from the
// first cycle to the last. Runtime goroutines can allocate while the
// count is open but never take an allocation away, so the fewest over
// a few runs is the core's own count.
func runMallocs(p *program.Program) uint64 {
	var fewest uint64
	for i := range 3 {
		c := cpu.New(cpu.DefaultConfig(), p)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.Run()
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; i == 0 || n < fewest {
			fewest = n
		}
	}
	return fewest
}

// storeLoop stores to the same four cache lines every iteration: a
// fixed footprint whose every store passes through the drain queue.
func storeLoop(iters int) *program.Program {
	b := program.NewBuilder("storeloop")
	base := b.Alloc(256, 64)
	b.Func("main")
	b.MoviU(isa.X(1), base)
	b.Movi(isa.X(2), 0)
	b.Movi(isa.X(3), int64(iters))
	b.Label("top")
	for i := int64(0); i < 4; i++ {
		b.Store(isa.X(1), isa.X(2), i*64)
	}
	b.Addi(isa.X(2), isa.X(2), 1)
	b.Blt(isa.X(2), isa.X(3), "top")
	b.Halt()
	return b.MustBuild()
}

// setLoop chases through 16 lines 4 KiB apart every iteration: each
// load's address adds the previous load's (zero) value. The lines share
// one 8-way L1D set, so every load misses the L1D and hits the LLC, and
// most cycles wait on that fill: a fixed footprint that keeps the core
// on its quiet path.
func setLoop(iters int) *program.Program {
	b := program.NewBuilder("setloop")
	base := b.Alloc(16<<12, 4096)
	b.Func("main")
	b.MoviU(isa.X(1), base)
	b.Movi(isa.X(2), 0)
	b.Movi(isa.X(3), int64(iters))
	b.Label("top")
	for i := int64(0); i < 16; i++ {
		b.Add(isa.X(1), isa.X(1), isa.X(4))
		b.Load(isa.X(4), isa.X(1), i<<12)
	}
	b.Addi(isa.X(2), isa.X(2), 1)
	b.Blt(isa.X(2), isa.X(3), "top")
	b.Halt()
	return b.MustBuild()
}

// TestCycleLoopAllocatesNothing pins DESIGN §5's claim that the
// steady-state cycle loop allocates nothing: a kernel with a fixed
// footprint run for 4N iterations makes exactly as many allocations as
// the same kernel run for N. Filling the core's pools costs the same
// whatever the run length, so any per-cycle, per-fetch, per-dispatch
// or per-store allocation shows up as growth. Kernels that stream
// through memory are no candidates: their emulator memory legitimately
// grows with their data footprint.
func TestCycleLoopAllocatesNothing(t *testing.T) {
	kernels := map[string]func(int) *program.Program{"stores": storeLoop, "l1d-set": setLoop}
	for _, name := range []string{"exchange2", "nab"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		kernels[name] = w.Build
	}
	const n = 500
	for name, build := range kernels {
		short, long := runMallocs(build(n)), runMallocs(build(4*n))
		if long != short {
			t.Errorf("%s: %d allocations at %d iterations, %d at %d; the cycle loop allocates",
				name, short, n, long, 4*n)
		}
	}
}
