package pics

import (
	"bytes"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/events"
	"repro/internal/isa"
)

// addKey is one (PC, raw signature) pair an add sequence attributes to.
type addKey struct {
	pc  uint64
	sig events.PSV
}

// addSequence adds to every key once in shuffled order, then makes
// repeats more adds to keys drawn at random, so repeated adds to one
// component interleave with adds to all the others. Weights are
// arbitrary positive reals, so any reordering of a component's
// additions would show in its last bits.
func addSequence(rng *rand.Rand, keys []addKey, repeats int, add func(pc uint64, sig events.PSV, w float64)) {
	for _, i := range rng.Perm(len(keys)) {
		add(keys[i].pc, keys[i].sig, 1+rng.Float64()*1000)
	}
	for range repeats {
		k := keys[rng.IntN(len(keys))]
		add(k.pc, k.sig, 1+rng.Float64()*1000)
	}
}

// TestAccumMatchesProfileAdd pins the sparse accumulator to its
// reference: the same seeded add sequence through Accum and through
// Profile.Add must serialize to identical JSON bytes, under every
// event set's masking.
func TestAccumMatchesProfileAdd(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 0xACC))
	randSig := func() events.PSV { return events.PSV(rng.IntN(1 << events.NumEvents)) }

	// 100,000 code addresses with one to three signatures each: the
	// table doubles nine times on the way.
	var manyPCs []addKey
	for i := range 100_000 {
		for range 1 + rng.IntN(3) {
			manyPCs = append(manyPCs, addKey{isa.PCOf(i), randSig()})
		}
	}
	// One instruction meeting all 512 event combinations.
	var allSigs []addKey
	for s := range 1 << events.NumEvents {
		allSigs = append(allSigs, addKey{isa.PCOf(3), events.PSV(s)})
	}
	// Keys exact for any uint64 PC: the extremes, addresses differing
	// only in their top bits, and random ones.
	wide := []addKey{{0, 0}, {math.MaxUint64, 1}, {1 << 63, 0}, {1<<63 | 4, 0}, {4, 0}}
	for range 1000 {
		wide = append(wide, addKey{rng.Uint64(), randSig()})
	}

	type namedSet struct {
		name string
		set  events.Set
	}
	tea := namedSet{"tea", events.TEASet}
	all := []namedSet{tea, {"ibs", events.IBSSet}, {"empty", 0}}
	// The large case runs under one set: growth does not depend on the
	// masking, and its JSON dominates the test's time.
	cases := []struct {
		name    string
		keys    []addKey
		repeats int
		sets    []namedSet
	}{
		{"100k-pcs", manyPCs, 100_000, []namedSet{tea}},
		{"all-512-signatures", allSigs, 20_000, all},
		{"wide-pcs", wide, 10_000, all},
	}
	for _, c := range cases {
		for _, s := range c.sets {
			t.Run(c.name+"/"+s.name, func(t *testing.T) {
				acc, ref := NewAccum("TEA", s.set), NewProfile("TEA", s.set)
				acc.SetSeed(9)
				ref.Seed = 9
				seed := rng.Uint64()
				addSequence(rand.New(rand.NewPCG(seed, 1)), c.keys, c.repeats, acc.Add)
				addSequence(rand.New(rand.NewPCG(seed, 1)), c.keys, c.repeats, ref.Add)
				var got, want bytes.Buffer
				if err := acc.Profile().WriteJSON(&got); err != nil {
					t.Fatal(err)
				}
				if err := ref.WriteJSON(&want); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("Accum JSON differs from Profile.Add JSON (%d vs %d bytes)", got.Len(), want.Len())
				}
			})
		}
	}
}

// TestAccumMemoryFollowsAttribution bounds the accumulator by what the
// stream attributes, not by program size: gcc's golden shape at scale
// 0.25, 40,062 instructions with one signature each, fits in under
// 8 MB. An instruction-indexed dense table of 512 signatures each
// would take 164 MB.
func TestAccumMemoryFollowsAttribution(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a := NewAccum("golden", events.TEASet)
	for i := range 40_062 {
		a.Add(isa.PCOf(i), 0, 1)
	}
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= 8 {
		t.Errorf("accumulating 40,062 components allocated %.1f MB, want under 8", mb)
	}
	if n := len(a.Profile().Insts); n != 40_062 {
		t.Errorf("materialized %d instructions, want 40062", n)
	}
}
