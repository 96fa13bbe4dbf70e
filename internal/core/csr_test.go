package core

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cpu"
	"repro/internal/events"
	"repro/internal/pics"
)

func sampleFixture() Sample {
	return Sample{
		Cycle: 123456,
		State: events.Compute,
		Insts: []SampledInst{
			{PC: 0x10000, PSV: 0},
			{PC: 0x10004, PSV: events.PSV(0).Set(events.STL1).Set(events.STLLC)},
			{PC: 0x10008, PSV: events.PSV(0).Set(events.FLMB)},
		},
		Weight: 256,
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	s := sampleFixture()
	img, err := PackSample(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, coreID := UnpackSample(img, s.Weight)
	if coreID != 3 {
		t.Errorf("core ID = %d, want 3", coreID)
	}
	if got.Cycle != s.Cycle || got.State != s.State || got.Weight != s.Weight {
		t.Errorf("header mismatch: %+v vs %+v", got, s)
	}
	if len(got.Insts) != len(s.Insts) {
		t.Fatalf("got %d insts, want %d", len(got.Insts), len(s.Insts))
	}
	for i := range s.Insts {
		if got.Insts[i] != s.Insts[i] {
			t.Errorf("inst %d: %+v vs %+v", i, got.Insts[i], s.Insts[i])
		}
	}
}

func TestPackRejectsOverfullSample(t *testing.T) {
	s := Sample{State: events.Compute}
	for i := 0; i < 5; i++ {
		s.Insts = append(s.Insts, SampledInst{PC: uint64(i)})
	}
	if _, err := PackSample(s, 0); err == nil {
		t.Fatalf("5-instruction sample accepted into a 4-slot image")
	}
}

func TestPackUnpackProperty(t *testing.T) {
	f := func(cycle uint64, stateRaw uint8, n uint8, pcSeed uint64, psvRaw uint16) bool {
		s := Sample{
			Cycle:  cycle,
			State:  events.CommitState(stateRaw % events.NumCommitStates),
			Weight: 128,
		}
		for i := 0; i < int(n%5); i++ {
			s.Insts = append(s.Insts, SampledInst{
				PC:  pcSeed + uint64(i)*4,
				PSV: events.PSV(psvRaw>>i) & events.PSV(events.TEASet),
			})
		}
		img, err := PackSample(s, 7)
		if err != nil {
			return false
		}
		got, coreID := UnpackSample(img, 128)
		if coreID != 7 || got.Cycle != s.Cycle || got.State != s.State {
			return false
		}
		if len(got.Insts) != len(s.Insts) {
			return false
		}
		for i := range s.Insts {
			if got.Insts[i] != s.Insts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMetaBitsMatchPaper(t *testing.T) {
	if got := MetaBitsUsed(); got != 46 {
		t.Errorf("metadata CSR uses %d bits, paper reports 46", got)
	}
	if MetaBitsUsed() > 64 {
		t.Errorf("metadata exceeds the 64-bit CSR")
	}
	var img CSRImage
	if size := len(img) * 8; size != SampleBytes {
		t.Errorf("CSR image is %d bytes, sample size is %d", size, SampleBytes)
	}
}

func TestSampleFileRoundTrip(t *testing.T) {
	// Real samples from a real run: write to a file, read back, rebuild
	// the PICS, and compare against the online profile.
	p := memLoop(1200)
	c := cpu.New(cpu.DefaultConfig(), p)
	cfg := DefaultConfig()
	cfg.IntervalCycles = 300
	cfg.JitterCycles = 300 / 16
	tea := NewTEA(c, cfg)
	c.Attach(tea)
	c.Run()

	var buf bytes.Buffer
	if err := WriteSamples(&buf, tea.Samples(), 5); err != nil {
		t.Fatal(err)
	}
	wantLen := len(tea.Samples()) * SampleBytes
	if buf.Len() != wantLen {
		t.Errorf("file is %d bytes, want %d (%d samples x %d B)",
			buf.Len(), wantLen, len(tea.Samples()), SampleBytes)
	}

	samples, coreID, err := ReadSamples(&buf, float64(cfg.IntervalCycles))
	if err != nil {
		t.Fatal(err)
	}
	if coreID != 5 {
		t.Errorf("core ID = %d, want 5", coreID)
	}
	rebuilt := BuildProfile("TEA", events.TEASet, samples)
	if e := pics.Error(rebuilt, tea.Profile()); e > 1e-9 {
		t.Errorf("file round trip changed the profile: error %v", e)
	}
	if math.Abs(rebuilt.Total()-tea.Profile().Total()) > 1e-6 {
		t.Errorf("totals differ: %v vs %v", rebuilt.Total(), tea.Profile().Total())
	}
}

func TestReadSamplesTruncated(t *testing.T) {
	s := sampleFixture()
	var buf bytes.Buffer
	if err := WriteSamples(&buf, []Sample{s}, 0); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-8]
	_, _, err := ReadSamples(bytes.NewReader(trunc), 1)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("truncated file accepted: %v", err)
	}
}

func TestReadSamplesEmpty(t *testing.T) {
	samples, _, err := ReadSamples(bytes.NewReader(nil), 1)
	if err != nil || len(samples) != 0 {
		t.Errorf("empty file should parse to zero samples: %v %v", samples, err)
	}
}
