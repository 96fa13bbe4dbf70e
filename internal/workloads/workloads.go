// Package workloads provides the benchmark suite of the evaluation:
// synthetic kernels, each engineered to exhibit the dominant
// microarchitectural behaviour of a SPEC CPU2017 benchmark the paper
// discusses (DESIGN.md documents this substitution — the paper runs the
// real SPEC reference inputs on FireSim, which is unavailable here).
// The kernels collectively exercise every TEA event, combined events,
// latency hiding, and the two case-study patterns (lbm's non-hidden
// streaming loads and nab's serializing flushes).
package workloads

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/simerr"
)

// Workload describes one benchmark of the suite.
type Workload struct {
	// Name is the SPEC benchmark whose dominant behaviour the kernel
	// mimics.
	Name string
	// Behavior summarizes the microarchitectural profile.
	Behavior string
	// DefaultIters is the iteration count used by the experiment
	// harness; tests scale it down.
	DefaultIters int
	// Build assembles the kernel with the given iteration count.
	Build func(iters int) *program.Program
}

// All returns the benchmark suite in evaluation order (alphabetical,
// first and second halves merged).
func All() []Workload {
	all := append(suite1(), suite2()...)
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	return all
}

func suite1() []Workload {
	return []Workload{
		{"bwaves", "strided FP loads; combined cache+TLB misses", 8000, Bwaves},
		{"cactuBSSN", "long dependent FP chains; divide-latency stalls", 12000, Cactu},
		{"deepsjeng", "data-dependent branches; frequent mispredicts", 20000, Deepsjeng},
		{"exchange2", "register-resident integer compute; few events", 15000, Exchange2},
		{"fotonik3d", "streaming loads; cache misses without TLB misses", 10000, Fotonik3d},
		{"gcc", "hot loop plus large cold code footprint; I-cache/I-TLB misses, rare flushes", 40, GCC},
		{"lbm", "streaming loads and 19-line store bursts; LLC-resident working set exceeded", 2500, func(n int) *program.Program { return LBM(n, 0) }},
		{"mcf", "pointer chasing with dependent branches", 6000, MCF},
		{"nab", "FP sqrt preceded by serializing flag accesses (flushes)", 8000, func(n int) *program.Program { return NAB(n, false) }},
		{"omnetpp", "pointer chasing over a large heap; combined cache+TLB misses", 6000, Omnetpp},
		{"roms", "store-bandwidth-bound streaming writes (DR-SQ)", 6000, ROMS},
		{"wrf", "FP compute over strided grids; mixed stalls", 8000, WRF},
		{"xz", "integer mix with store-load aliasing (ordering violations)", 6000, XZ},
	}
}

// ByName returns the named workload.
func ByName(name string) (Workload, error) {
	for _, w := range All() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, simerr.New(simerr.ErrInvalidConfig, simerr.Snapshot{Workload: name},
		"workloads: unknown benchmark %q", name)
}

// Names lists the suite's benchmark names in order.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, w := range all {
		names[i] = w.Name
	}
	return names
}

// ---------------------------------------------------------------------------
// lbm — the Figure 10/11 case study.

// CheckPrefetchDist returns a typed ErrInvalidProgram unless d is a
// prefetch distance front ends may pass to LBM: 0 (no prefetching)
// through 64. A negative distance would also build the kernel without
// prefetches, under a name that claims one.
func CheckPrefetchDist(d int) error {
	if d < 0 || d > 64 {
		return simerr.New(simerr.ErrInvalidProgram, simerr.Snapshot{Workload: "lbm"},
			"prefetch distance %d outside [0, 64]", d)
	}
	return nil
}

// LBM builds the lbm-like kernel: each inner-loop iteration loads 11
// words spanning three cache lines of the source stream, runs enough FP
// compute to fill the ROB, and issues 19 stores across five output
// line-streams. The working set exceeds the LLC, so the leading load of
// each line misses DRAM-deep. prefetchDist > 0 inserts software
// prefetches for the three source lines prefetchDist iterations ahead
// (the paper's custom ROCC prefetch instruction).
func LBM(iters, prefetchDist int) *program.Program {
	b := program.NewBuilder(fmt.Sprintf("lbm(pd=%d)", prefetchDist))
	const srcStride = 192 // three 64-byte lines per iteration
	const outStreams = 5
	src := b.Alloc(uint64(iters)*srcStride+4096, 4096)
	var outs [outStreams]uint64
	for i := range outs {
		outs[i] = b.Alloc(uint64(iters)*64+4096, 4096)
	}

	b.Func("lbm_kernel")
	b.MoviU(isa.X(1), src) // src cursor
	for i := range outs {
		b.MoviU(isa.X(10+i), outs[i]) // out cursors x10..x14
	}
	b.Movi(isa.X(2), 0) // i
	b.Movi(isa.X(3), int64(iters))
	b.Movi(isa.X(4), 3)
	b.FMovI(isa.F(9), isa.X(4)) // f9 = 3.0

	b.Label("loop")
	if prefetchDist > 0 {
		for l := int64(0); l < 3; l++ {
			b.Prefetch(isa.X(1), int64(prefetchDist)*srcStride+l*64)
		}
	}
	// 11 loads spanning three source lines (offsets 0..176).
	for l := 0; l < 11; l++ {
		b.LoadF(isa.F(10+l), isa.X(1), int64(l)*16)
	}
	// FP compute: long enough to keep the ROB full across iterations,
	// mirroring lbm's collision-operator arithmetic.
	for r := 0; r < 12; r++ {
		for l := 0; l < 11; l++ {
			b.FAdd(isa.F(10+l), isa.F(10+l), isa.F(9))
			b.FMul(isa.F(10+l), isa.F(10+l), isa.F(9))
		}
	}
	// 19 stores across five output line-streams.
	for s := 0; s < 19; s++ {
		stream := s % outStreams
		off := int64(s/outStreams) * 16
		b.StoreF(isa.Reg(10+stream), isa.F(10+s%11), off)
	}
	for i := range outs {
		b.Addi(isa.Reg(10+i), isa.Reg(10+i), 64)
	}
	b.Addi(isa.X(1), isa.X(1), srcStride)
	b.Addi(isa.X(2), isa.X(2), 1)
	b.Blt(isa.X(2), isa.X(3), "loop")
	b.Halt()
	return b.MustBuild()
}

// ---------------------------------------------------------------------------
// nab — the Figure 12 case study.

// NAB builds the nab-like kernel: a distance computation whose FP
// comparison is guarded by serializing CSR flag accesses (fsflags/
// frflags, modeled by csrflush) for IEEE 754 compliance, followed by an
// fsqrt whose latency cannot be hidden because the flush emptied the
// pipeline. fastMath omits the serializing accesses — the paper's
// -ffinite-math/-ffast-math optimization.
func NAB(iters int, fastMath bool) *program.Program {
	name := "nab"
	if fastMath {
		name = "nab(fast-math)"
	}
	b := program.NewBuilder(name)
	data := b.Alloc(uint64(iters)*8+4096, 4096)
	rng := rand.New(rand.NewPCG(0xAB, 1))
	for i := 0; i < iters; i++ {
		b.SetWord(data+uint64(i)*8, uint64(rng.Uint64N(1000)+1))
	}

	b.Func("nab_dist")
	b.MoviU(isa.X(1), data)
	b.Movi(isa.X(2), 0)
	b.Movi(isa.X(3), int64(iters))
	b.Movi(isa.X(4), 2)
	b.FMovI(isa.F(1), isa.X(4)) // f1 = 2.0
	b.Movi(isa.X(5), 0)
	b.FMovI(isa.F(8), isa.X(5)) // f8 = 0.0 accumulator

	b.Label("loop")
	b.Load(isa.X(6), isa.X(1), 0)
	b.FMovI(isa.F(2), isa.X(6))          // r2 = dist^2 (positive)
	b.FMul(isa.F(3), isa.F(2), isa.F(1)) // scale
	if !fastMath {
		// flt.d must not trap on NaN: the compiler brackets the
		// comparison with fsflags/frflags, which always flush the
		// pipeline on this core.
		b.CsrFlush()
	}
	b.FCmpLT(isa.X(7), isa.F(2), isa.F(3)) // flt.d
	if !fastMath {
		b.CsrFlush()
	}
	b.FSqrt(isa.F(4), isa.F(3)) // performance-critical fsqrt.d
	b.FAdd(isa.F(8), isa.F(8), isa.F(4))
	b.Addi(isa.X(1), isa.X(1), 8)
	b.Addi(isa.X(2), isa.X(2), 1)
	b.Blt(isa.X(2), isa.X(3), "loop")
	b.Halt()
	return b.MustBuild()
}

// ---------------------------------------------------------------------------
// Suite kernels.

// Bwaves mimics bwaves: several strided FP load streams whose strides
// differ — one crosses a page every access (combined cache+TLB misses,
// the Figure 6a example), one crosses lines within pages, and one is
// dense — so different static loads see different event mixes.
func Bwaves(iters int) *program.Program {
	b := program.NewBuilder("bwaves")
	const strideA = 8256 // page- and line-crossing
	const strideB = 320  // line-crossing, page every ~13
	const strideC = 24   // dense
	arrA := b.Alloc(uint64(iters)*strideA+8192, 4096)
	arrB := b.Alloc(uint64(iters)*strideB+8192, 4096)
	arrC := b.Alloc(uint64(iters)*strideC+8192, 4096)
	b.Func("bwaves_solve")
	b.MoviU(isa.X(1), arrA)
	b.MoviU(isa.X(8), arrB)
	b.MoviU(isa.X(9), arrC)
	b.Movi(isa.X(2), 0)
	b.Movi(isa.X(3), int64(iters))
	b.Movi(isa.X(4), 3)
	b.FMovI(isa.F(1), isa.X(4))
	b.Label("loop")
	b.LoadF(isa.F(2), isa.X(1), 0) // combined cache+TLB misses
	b.LoadF(isa.F(6), isa.X(8), 0) // mostly cache-only misses
	b.LoadF(isa.F(7), isa.X(9), 0) // mostly hits
	b.FMul(isa.F(3), isa.F(2), isa.F(1))
	b.FAdd(isa.F(4), isa.F(3), isa.F(6))
	b.FAdd(isa.F(5), isa.F(4), isa.F(7))
	b.StoreF(isa.X(1), isa.F(5), 8)
	b.Addi(isa.X(1), isa.X(1), strideA)
	b.Addi(isa.X(8), isa.X(8), strideB)
	b.Addi(isa.X(9), isa.X(9), strideC)
	b.Addi(isa.X(2), isa.X(2), 1)
	b.Blt(isa.X(2), isa.X(3), "loop")
	b.Halt()
	return b.MustBuild()
}

// Cactu mimics cactuBSSN: long dependent floating-point chains with
// divides — exposed execution latency without memory events.
func Cactu(iters int) *program.Program {
	b := program.NewBuilder("cactuBSSN")
	b.Func("cactu_rhs")
	b.Movi(isa.X(2), 0)
	b.Movi(isa.X(3), int64(iters))
	b.Movi(isa.X(4), 7)
	b.FMovI(isa.F(1), isa.X(4))
	b.Movi(isa.X(5), 3)
	b.FMovI(isa.F(2), isa.X(5))
	b.Label("loop")
	b.FDiv(isa.F(3), isa.F(1), isa.F(2))
	b.FAdd(isa.F(3), isa.F(3), isa.F(2))
	b.FMul(isa.F(3), isa.F(3), isa.F(2))
	b.FDiv(isa.F(4), isa.F(3), isa.F(2)) // dependent divide chain
	b.FAdd(isa.F(1), isa.F(4), isa.F(2))
	b.Addi(isa.X(2), isa.X(2), 1)
	b.Blt(isa.X(2), isa.X(3), "loop")
	b.Halt()
	return b.MustBuild()
}

// Deepsjeng mimics deepsjeng: xorshift-driven branches the predictor
// cannot learn, flushing the pipeline frequently (FL-MB). The branches
// have different biases (p = 1/2, 1/4, 1/16), so different static
// branches contribute different mispredict counts and flush costs.
func Deepsjeng(iters int) *program.Program {
	b := program.NewBuilder("deepsjeng")
	b.Func("sjeng_search")
	b.Movi(isa.X(1), 0)
	b.Movi(isa.X(2), int64(iters))
	b.Movi(isa.X(4), 88172645463325252)
	b.Movi(isa.X(7), 0)
	b.Label("loop")
	b.Shli(isa.X(5), isa.X(4), 13)
	b.Xor(isa.X(4), isa.X(4), isa.X(5))
	b.Shri(isa.X(5), isa.X(4), 7)
	b.Xor(isa.X(4), isa.X(4), isa.X(5))
	b.Shli(isa.X(5), isa.X(4), 17)
	b.Xor(isa.X(4), isa.X(4), isa.X(5))
	// p=1/2 branch on bit 0.
	b.Andi(isa.X(5), isa.X(4), 1)
	b.Beq(isa.X(5), isa.X(0), "even")
	b.Addi(isa.X(7), isa.X(7), 3)
	b.Jmp("join")
	b.Label("even")
	b.Addi(isa.X(7), isa.X(7), 1)
	b.Label("join")
	// p=1/4 branch on bits 3..4 == 0.
	b.Shri(isa.X(6), isa.X(4), 3)
	b.Andi(isa.X(6), isa.X(6), 3)
	b.Bne(isa.X(6), isa.X(0), "skip4")
	b.Addi(isa.X(7), isa.X(7), 5)
	b.Label("skip4")
	// p=1/16 branch on bits 8..11 == 0.
	b.Shri(isa.X(6), isa.X(4), 8)
	b.Andi(isa.X(6), isa.X(6), 15)
	b.Bne(isa.X(6), isa.X(0), "skip16")
	b.Addi(isa.X(7), isa.X(7), 7)
	b.Label("skip16")
	b.Addi(isa.X(1), isa.X(1), 1)
	b.Blt(isa.X(1), isa.X(2), "loop")
	b.Halt()
	return b.MustBuild()
}

// Exchange2 mimics exchange2: register-resident integer compute with
// well-predicted control flow — the benchmark with the fewest events.
func Exchange2(iters int) *program.Program {
	b := program.NewBuilder("exchange2")
	b.Func("digits_place")
	b.Movi(isa.X(1), 0)
	b.Movi(isa.X(2), int64(iters))
	b.Movi(isa.X(4), 12345)
	b.Movi(isa.X(5), 10)
	b.Label("loop")
	b.Mul(isa.X(6), isa.X(4), isa.X(5))
	b.Shri(isa.X(7), isa.X(6), 3)
	b.Add(isa.X(8), isa.X(6), isa.X(7))
	b.Xor(isa.X(4), isa.X(8), isa.X(1))
	// Independent work alongside the recurrence.
	b.Addi(isa.X(11), isa.X(1), 5)
	b.Add(isa.X(13), isa.X(11), isa.X(1))
	b.Xor(isa.X(14), isa.X(13), isa.X(11))
	b.Andi(isa.X(9), isa.X(4), 7)
	b.Beq(isa.X(9), isa.X(5), "never") // never taken: well predicted
	b.Label("back")
	b.Addi(isa.X(1), isa.X(1), 1)
	b.Blt(isa.X(1), isa.X(2), "loop")
	b.Halt()
	b.Label("never")
	b.Jmp("back")
	return b.MustBuild()
}

// Fotonik3d mimics fotonik3d: dense sequential streaming whose TLB
// reach suffices — cache misses arrive without TLB misses (the
// cache-only contrast to bwaves in Figure 6).
func Fotonik3d(iters int) *program.Program {
	b := program.NewBuilder("fotonik3d")
	arr := b.Alloc(uint64(iters)*64+8192, 4096)
	b.Func("fotonik_sweep")
	b.MoviU(isa.X(1), arr)
	b.Movi(isa.X(2), 0)
	b.Movi(isa.X(3), int64(iters))
	b.Movi(isa.X(4), 5)
	b.FMovI(isa.F(1), isa.X(4))
	b.Label("loop")
	b.LoadF(isa.F(2), isa.X(1), 0)
	b.LoadF(isa.F(3), isa.X(1), 16)
	b.LoadF(isa.F(4), isa.X(1), 32)
	b.FMul(isa.F(5), isa.F(2), isa.F(1))
	b.FAdd(isa.F(5), isa.F(5), isa.F(3))
	b.FAdd(isa.F(5), isa.F(5), isa.F(4))
	b.StoreF(isa.X(1), isa.F(5), 48)
	b.Addi(isa.X(1), isa.X(1), 64) // one line per iteration, sequential
	b.Addi(isa.X(2), isa.X(2), 1)
	b.Blt(isa.X(2), isa.X(3), "loop")
	b.Halt()
	return b.MustBuild()
}

// GCC mimics gcc: a code footprint several times the 32 KB L1
// instruction cache (and beyond the 128 KB I-TLB reach), walked pass
// after pass, so instruction fetch misses dominate (DR-L1, DR-TLB).
// One serializing flag access per block and one store/load aliasing
// pair per pass add rare FL-EX and FL-MO events, as compiler workloads
// exhibit through syscalls and optimistic scheduling.
func GCC(iters int) *program.Program {
	b := program.NewBuilder("gcc")
	buf := b.Alloc(1<<16, 4096)
	const hotIters = 2000   // hot-loop trips per pass
	const blocks = 10       // cold straight-line blocks
	const blockInsts = 4000 // 10 x 4000 x 4 B = 160 KB of cold code
	const coldEvery = 4     // the cold walk runs every 4th pass

	b.Func("gcc_hot")
	b.MoviU(isa.X(1), buf)
	b.Movi(isa.X(2), 0)
	b.Movi(isa.X(3), int64(iters))
	b.Movi(isa.X(12), 2)
	b.Label("pass")
	// Hot loop: a compact, cache-resident kernel that dominates the
	// profile (real gcc spends most time in a few hot routines).
	b.Movi(isa.X(20), 0)
	b.Movi(isa.X(21), hotIters)
	b.Label("hot")
	for i := 0; i < 40; i++ {
		r := isa.X(4 + (i % 4))
		if i%3 == 0 {
			b.Add(r, r, isa.X(20))
		} else {
			b.Xor(r, r, isa.X(2))
		}
	}
	b.Addi(isa.X(20), isa.X(20), 1)
	b.Blt(isa.X(20), isa.X(21), "hot")

	// Cold tail: 160 KB of straight-line code (beyond both the 32 KB
	// L1I and the 128 KB I-TLB reach), walked every coldEvery'th pass —
	// capacity misses in the instruction cache (DR-L1) and I-TLB
	// (DR-TLB) like a compiler touching many cold routines.
	b.Andi(isa.X(22), isa.X(2), coldEvery-1)
	b.Bne(isa.X(22), isa.X(0), "skipcold")
	for blk := 0; blk < blocks; blk++ {
		b.Func(fmt.Sprintf("gcc_cold_%d", blk))
		for i := 0; i < blockInsts; i++ {
			r := isa.X(4 + (i % 6))
			switch i % 5 {
			case 0:
				b.Addi(r, isa.X(2), int64(i&0xFF))
			case 1:
				b.Xor(r, r, isa.X(2))
			case 2:
				b.Shli(r, r, 1)
			case 3:
				b.Add(r, r, isa.X(4))
			default:
				b.Andi(r, r, 0xFFF)
			}
		}
		if blk == 0 {
			// Rare serializing access (FL-EX), once per pass.
			b.CsrFlush()
		}
		if blk == 1 {
			// Store with a divide-delayed address aliasing the next
			// load (occasional FL-MO).
			b.Movi(isa.X(10), 256)
			b.Div(isa.X(10), isa.X(10), isa.X(12))
			b.Div(isa.X(10), isa.X(10), isa.X(12)) // 64
			b.Add(isa.X(11), isa.X(1), isa.X(10))
			b.Addi(isa.X(11), isa.X(11), -64) // = buf, late
			b.Store(isa.X(11), isa.X(2), 0)
			b.Load(isa.X(9), isa.X(1), 0) // younger, aliases buf
			b.Add(isa.X(9), isa.X(9), isa.X(9))
		}
	}
	b.Func("gcc_tail")
	b.Label("skipcold")
	b.Addi(isa.X(2), isa.X(2), 1)
	b.Blt(isa.X(2), isa.X(3), "pass")
	b.Halt()
	return b.MustBuild()
}

// chaseList initializes a pseudo-random cyclic permutation of nodes
// spaced nodeStride bytes apart (must be 8-byte aligned) and returns
// the base address.
func chaseList(b *program.Builder, nodes int, nodeStride uint64, seed uint64) uint64 {
	if nodeStride%8 != 0 {
		//tealint:ignore nakedpanic static workload construction invariant; strides are compile-time constants
		panic("workloads: chase-list stride must be 8-byte aligned")
	}
	base := b.Alloc(uint64(nodes)*nodeStride+4096, 4096)
	perm := make([]int, nodes)
	for i := range perm {
		perm[i] = i
	}
	rng := rand.New(rand.NewPCG(seed, 99))
	// Sattolo's algorithm yields a single cycle through all nodes;
	// node k's pointer field holds the address of its successor.
	for i := nodes - 1; i > 0; i-- {
		j := rng.IntN(i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for k := 0; k < nodes; k++ {
		b.SetWord(base+uint64(k)*nodeStride, base+uint64(perm[k])*nodeStride)
	}
	return base
}

// Omnetpp mimics omnetpp: pointer chasing across a heap far larger than
// the LLC and TLB reach, yielding combined (ST-L1,ST-LLC,ST-TLB)
// signatures on the chase load.
func Omnetpp(iters int) *program.Program {
	b := program.NewBuilder("omnetpp")
	base := chaseList(b, 65536, 408, 0x42) // ~26 MB footprint, page-crossing nodes
	b.Func("omnetpp_sim")
	b.MoviU(isa.X(1), base)
	b.Movi(isa.X(2), 0)
	b.Movi(isa.X(3), int64(iters))
	b.Movi(isa.X(7), 0)
	b.Label("loop")
	b.Load(isa.X(1), isa.X(1), 0) // serialized pointer chase
	b.Add(isa.X(7), isa.X(7), isa.X(1))
	b.Addi(isa.X(2), isa.X(2), 1)
	b.Blt(isa.X(2), isa.X(3), "loop")
	b.Halt()
	return b.MustBuild()
}

// MCF mimics mcf: pointer chasing with a data-dependent branch on the
// loaded value — LLC misses plus mispredicts.
func MCF(iters int) *program.Program {
	b := program.NewBuilder("mcf")
	base := chaseList(b, 32768, 232, 0x77) // ~7.6 MB, line-crossing nodes
	b.Func("mcf_simplex")
	b.MoviU(isa.X(1), base)
	b.Movi(isa.X(2), 0)
	b.Movi(isa.X(3), int64(iters))
	b.Movi(isa.X(7), 0)
	b.Label("loop")
	b.Load(isa.X(1), isa.X(1), 0)
	b.Andi(isa.X(5), isa.X(1), 8) // pseudo-random bit of the address
	b.Beq(isa.X(5), isa.X(0), "skip")
	b.Addi(isa.X(7), isa.X(7), 1)
	b.Label("skip")
	b.Addi(isa.X(2), isa.X(2), 1)
	b.Blt(isa.X(2), isa.X(3), "loop")
	b.Halt()
	return b.MustBuild()
}

// ROMS mimics roms: store-bandwidth-bound streaming writes whose drain
// backlog fills the store queue (DR-SQ drain stalls).
func ROMS(iters int) *program.Program {
	b := program.NewBuilder("roms")
	arr := b.Alloc(uint64(iters)*256+8192, 4096)
	b.Func("roms_step")
	b.MoviU(isa.X(1), arr)
	b.Movi(isa.X(2), 0)
	b.Movi(isa.X(3), int64(iters))
	b.Movi(isa.X(4), 11)
	b.Label("loop")
	for l := int64(0); l < 4; l++ {
		b.Store(isa.X(1), isa.X(4), l*64) // four fresh lines per iteration
	}
	b.Addi(isa.X(1), isa.X(1), 256)
	b.Addi(isa.X(2), isa.X(2), 1)
	b.Blt(isa.X(2), isa.X(3), "loop")
	b.Halt()
	return b.MustBuild()
}

// WRF mimics wrf: floating-point compute over strided grid accesses —
// a mix of moderate cache misses and FP latency.
func WRF(iters int) *program.Program {
	b := program.NewBuilder("wrf")
	arr := b.Alloc(uint64(iters)*136+8192, 4096)
	b.Func("wrf_physics")
	b.MoviU(isa.X(1), arr)
	b.Movi(isa.X(2), 0)
	b.Movi(isa.X(3), int64(iters))
	b.Movi(isa.X(4), 2)
	b.FMovI(isa.F(1), isa.X(4))
	b.Label("loop")
	b.LoadF(isa.F(2), isa.X(1), 0)
	b.FMul(isa.F(3), isa.F(2), isa.F(1))
	b.FDiv(isa.F(4), isa.F(3), isa.F(1))
	b.FAdd(isa.F(5), isa.F(4), isa.F(2))
	b.StoreF(isa.X(1), isa.F(5), 64)
	b.Addi(isa.X(1), isa.X(1), 136)
	b.Addi(isa.X(2), isa.X(2), 1)
	b.Blt(isa.X(2), isa.X(3), "loop")
	b.Halt()
	return b.MustBuild()
}

// XZ mimics xz: an integer mix whose store addresses resolve late while
// younger loads to the same buffer issue early — triggering memory-
// ordering violations (FL-MO) alongside moderate cache misses.
func XZ(iters int) *program.Program {
	b := program.NewBuilder("xz")
	buf := b.Alloc(1<<20, 4096)
	b.Func("xz_encode")
	b.MoviU(isa.X(1), buf)
	b.Movi(isa.X(2), 0)
	b.Movi(isa.X(3), int64(iters))
	b.Movi(isa.X(11), 64)
	b.Movi(isa.X(12), 3)
	b.Label("loop")
	// Late-resolving store address: a divide chain delays the index, so
	// the younger load issues first. The store writes slot (3i)%1024
	// while the load reads slot i%1024 — they alias every 512
	// iterations, producing occasional ordering violations.
	b.Mul(isa.X(4), isa.X(2), isa.X(12))
	b.Andi(isa.X(4), isa.X(4), 1023)
	b.Shli(isa.X(4), isa.X(4), 6)
	b.Movi(isa.X(5), 128)
	b.Movi(isa.X(6), 2)
	b.Div(isa.X(5), isa.X(5), isa.X(6))
	b.Div(isa.X(5), isa.X(5), isa.X(6)) // 32
	b.Add(isa.X(7), isa.X(1), isa.X(4))
	b.Add(isa.X(7), isa.X(7), isa.X(5))
	b.Addi(isa.X(7), isa.X(7), -32)  // x7 = buf + ((3i)%1024)*64, late
	b.Store(isa.X(7), isa.X(2), 0)   // store with late address
	b.Andi(isa.X(8), isa.X(2), 1023) // load slot index, early
	b.Shli(isa.X(8), isa.X(8), 6)
	b.Add(isa.X(8), isa.X(1), isa.X(8))
	b.Load(isa.X(9), isa.X(8), 0) // younger load: issues before the store
	b.Add(isa.X(10), isa.X(9), isa.X(9))
	b.Addi(isa.X(2), isa.X(2), 1)
	b.Blt(isa.X(2), isa.X(3), "loop")
	b.Halt()
	return b.MustBuild()
}
