// Cache-key derivation. A capture's identity is everything that can
// change its bytes: the program's full contents (instructions, data
// image, function table, name), every knob of the run and core
// configuration, and the trace format version. The Hasher folds each
// of those into one SHA-256 — content addressing, so renaming a cache
// directory or swapping binaries can never serve a stale capture.
//
// Functions marked //tealint:cachekey are checked by the cachekey
// analyzer: every field of their struct parameters (recursively, for
// all-exported structs) must be consumed, so adding a configuration
// field without hashing it fails `go vet` rather than silently keying
// two different captures identically.
package tracestore

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"

	"repro/internal/branch"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/xiter"
)

// Hasher accumulates a cache key. The zero value is not ready; use
// NewHasher.
//
// Fields are staged in a fixed buffer and handed to SHA-256 a buffer at
// a time: a program's data image is tens of thousands of 8-byte fields,
// and one hash Write per field costs more than the hashing itself. The
// byte stream SHA-256 sees is the same either way, so keys do not
// depend on the buffering.
type Hasher struct {
	h   hash.Hash
	n   int // staged bytes in buf
	buf [1024]byte
}

// NewHasher returns an empty key accumulator.
func NewHasher() *Hasher {
	return &Hasher{h: sha256.New()}
}

// flush hands the staged bytes to SHA-256.
func (h *Hasher) flush() {
	h.h.Write(h.buf[:h.n])
	h.n = 0
}

// Sum finalizes the key.
func (h *Hasher) Sum() Key {
	h.flush()
	var k Key
	h.h.Sum(k[:0])
	return k
}

// Uint folds one 64-bit value (fixed-width little-endian, so values
// never alias across field boundaries).
func (h *Hasher) Uint(v uint64) {
	if h.n+8 > len(h.buf) {
		h.flush()
	}
	binary.LittleEndian.PutUint64(h.buf[h.n:], v)
	h.n += 8
}

// Key folds another key (fixed width, so it needs no length prefix).
func (h *Hasher) Key(k Key) { h.bytes(k[:]) }

// bytes folds raw bytes, staging small runs and passing large ones
// straight through.
func (h *Hasher) bytes(b []byte) {
	if h.n+len(b) > len(h.buf) {
		h.flush()
		if len(b) > len(h.buf) {
			h.h.Write(b)
			return
		}
	}
	h.n += copy(h.buf[h.n:], b)
}

// Int folds a signed value.
func (h *Hasher) Int(v int64) { h.Uint(uint64(v)) }

// Bool folds a flag.
func (h *Hasher) Bool(v bool) {
	if v {
		h.Uint(1)
	} else {
		h.Uint(0)
	}
}

// Float folds a float64 by bit pattern (bit-identical configs, not
// epsilon-equal ones, share captures).
func (h *Hasher) Float(v float64) { h.Uint(math.Float64bits(v)) }

// String folds a length-prefixed string (the prefix keeps "ab","c"
// distinct from "a","bc").
func (h *Hasher) String(s string) {
	h.Uint(uint64(len(s)))
	h.bytes([]byte(s))
}

// Ints folds a length-prefixed int slice.
func (h *Hasher) Ints(vs []int) {
	h.Uint(uint64(len(vs)))
	for _, v := range vs {
		h.Int(int64(v))
	}
}

// Program folds the program's complete contents: name, every static
// instruction, the function table, and the initial data image (sorted
// by address for determinism).
//
//tealint:cachekey
func (h *Hasher) Program(p *program.Program) {
	h.String(p.Name)
	h.Uint(uint64(len(p.Insts)))
	for _, in := range p.Insts {
		h.Inst(in)
	}
	h.Uint(uint64(len(p.Funcs)))
	for _, f := range p.Funcs {
		h.Function(f)
	}
	addrs := xiter.SortedKeys(p.Data)
	h.Uint(uint64(len(addrs)))
	for _, a := range addrs {
		h.Uint(a)
		h.Uint(p.Data[a])
	}
}

// Inst folds one static instruction.
//
//tealint:cachekey
func (h *Hasher) Inst(in isa.Inst) {
	h.Uint(uint64(in.Op))
	h.Uint(uint64(in.Rd))
	h.Uint(uint64(in.Rs1))
	h.Uint(uint64(in.Rs2))
	h.Int(in.Imm)
	h.Int(int64(in.Target))
	h.String(in.Label)
}

// Function folds one function-table entry.
//
//tealint:cachekey
func (h *Hasher) Function(f program.Function) {
	h.String(f.Name)
	h.Int(int64(f.Start))
	h.Int(int64(f.End))
}

// CPUConfig folds the complete core configuration (Table 2 plus the
// robustness guards and substrates).
//
//tealint:cachekey
func (h *Hasher) CPUConfig(c cpu.Config) {
	h.Int(int64(c.FetchWidth))
	h.Int(int64(c.FetchBufEntries))
	h.Int(int64(c.DecodeWidth))
	h.Uint(c.FrontEndDepth)
	h.Uint(c.RedirectPenalty)
	h.Int(int64(c.BTBEntries))
	h.Uint(c.BTBMissPenalty)
	h.Int(int64(c.ROBEntries))
	h.Int(int64(c.CommitWidth))
	h.Int(int64(c.IntIQEntries))
	h.Int(int64(c.IntIssueWidth))
	h.Int(int64(c.MemIQEntries))
	h.Int(int64(c.MemIssueWidth))
	h.Int(int64(c.FPIQEntries))
	h.Int(int64(c.FPIssueWidth))
	h.Int(int64(c.LQEntries))
	h.Int(int64(c.SQEntries))
	h.Uint(c.MaxCycles)
	h.Uint(c.WatchdogCommitCycles)
	h.Uint(c.ALULatency)
	h.Uint(c.MulLatency)
	h.Uint(c.DivLatency)
	h.Uint(c.FPLatency)
	h.Uint(c.FDivLatency)
	h.Uint(c.FSqrtLatency)
	h.Uint(c.BranchLatency)
	h.Uint(c.ForwardLatency)
	h.MemConfig(c.Mem)
	h.BranchConfig(c.BP)
}

// MemConfig folds the memory-hierarchy configuration.
//
//tealint:cachekey
func (h *Hasher) MemConfig(c mem.Config) {
	h.CacheConfig(c.L1I)
	h.CacheConfig(c.L1D)
	h.CacheConfig(c.LLC)
	h.TLBConfig(c.ITLB)
	h.TLBConfig(c.DTLB)
	h.TLBConfig(c.Walker.L2)
	h.Uint(c.Walker.WalkLatency)
	h.Uint(c.DRAM.Latency)
	h.Uint(c.DRAM.CyclesPerLine)
	h.Bool(c.NextLinePrefetch)
}

// CacheConfig folds one cache level.
//
//tealint:cachekey
func (h *Hasher) CacheConfig(c mem.CacheConfig) {
	h.String(c.Name)
	h.Int(int64(c.SizeBytes))
	h.Int(int64(c.Ways))
	h.Int(int64(c.LineBytes))
	h.Int(int64(c.MSHRs))
	h.Uint(c.HitLatency)
}

// TLBConfig folds one TLB level.
//
//tealint:cachekey
func (h *Hasher) TLBConfig(c mem.TLBConfig) {
	h.String(c.Name)
	h.Int(int64(c.Entries))
	h.Int(int64(c.Ways))
	h.Uint(c.HitLatency)
}

// BranchConfig folds the branch-predictor configuration.
//
//tealint:cachekey
func (h *Hasher) BranchConfig(c branch.Config) {
	h.Int(int64(c.BimodalBits))
	h.Int(int64(c.TableBits))
	h.Int(int64(c.TagBits))
	h.Ints(c.HistoryLengths)
}
