package multicore

import (
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/kernels"
	"repro/internal/layout"
	"repro/internal/workloads"
)

// launchFor builds a streamed launch of b (seed 42) and returns it with the
// golden per-thread states the run must reproduce. The launch's Sources are
// consumed by the processor that packs them, so build one per processor.
func launchFor(t *testing.T, b *workloads.Benchmark, c Config, records int) (core.Launch, layout.Layout, kernels.StateLayout, [][]uint32) {
	t.Helper()
	lay := layout.Layout{
		RowBytes: c.DRAM.RowBytes, Corelets: c.Cores, Contexts: c.SMT,
		Interleave: layout.Split, StreamWords: b.StreamWords(records),
	}
	if err := lay.Validate(); err != nil {
		t.Fatal(err)
	}
	sl, err := kernels.LocalState(b.K, c.LocalBytes, c.SMT)
	if err != nil {
		t.Fatal(err)
	}
	args := kernels.ArgsAndConsts(b.K, lay.Walk(), sl, records)
	l := core.Launch{Prog: b.K.Prog, Interleave: layout.Split, Sources: b.Sources(c.Threads(), records, 42), Args: args}
	return l, lay, sl, b.GoldenStatesStreamed(c.Threads(), records, 42)
}

func TestAllBenchmarksOnMulticore(t *testing.T) {
	c := DefaultConfig()
	for _, b := range workloads.All() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			records := 16
			l, lay, sl, want := launchFor(t, b, c, records)
			s, err := New(c, energy.Default(), l)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run(0)
			if err != nil {
				t.Fatal(err)
			}
			got := workloads.ExtractStates(b, sl, lay, s.ReadState)
			for th := range want {
				for i := range want[th] {
					if got[th][i] != want[th][i] {
						t.Fatalf("%s: thread %d state[%d] = %#x, want %#x",
							b.Name(), th, i, got[th][i], want[th][i])
					}
				}
			}
			if res.Energy.TotalPJ() <= 0 || res.Cores.Instructions == 0 {
				t.Error("empty result")
			}
		})
	}
}

func TestSuperscalarIssuesFasterThanSingleIssue(t *testing.T) {
	b := workloads.VarianceBench()
	c := DefaultConfig()
	l, _, _, _ := launchFor(t, b, c, 256)
	s4, err := New(c, energy.Default(), l)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := s4.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	c1 := c
	c1.IssueWidth = 1
	l, _, _, _ = launchFor(t, b, c1, 256)
	s1, err := New(c1, energy.Default(), l)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s1.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if r4.Time >= r1.Time {
		t.Errorf("4-wide (%d ps) not faster than 1-wide (%d ps)", r4.Time, r1.Time)
	}
}

func TestOffChipEnergyDominates(t *testing.T) {
	b := workloads.CountBench()
	c := DefaultConfig()
	l, _, _, _ := launchFor(t, b, c, 512)
	s, err := New(c, energy.Default(), l)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	// At 70 pJ/bit, the off-chip DRAM must be a large share for a
	// memory-bound benchmark.
	if res.Energy.DRAMPJ < res.Energy.CorePJ/4 {
		t.Errorf("off-chip DRAM energy %.0f implausibly small vs core %.0f",
			res.Energy.DRAMPJ, res.Energy.CorePJ)
	}
}

func TestValidation(t *testing.T) {
	c := DefaultConfig()
	b := workloads.CountBench()
	l, _, _, _ := launchFor(t, b, c, 8)
	if _, err := New(c, energy.Default(), core.Launch{Sources: l.Sources, Interleave: layout.Split}); err == nil {
		t.Error("nil program accepted")
	}
	bad := l
	bad.Interleave = layout.Slab
	if _, err := New(c, energy.Default(), bad); err == nil {
		t.Error("non-Split layout accepted")
	}
	cb := c
	cb.Cores = 0
	if _, err := New(cb, energy.Default(), l); err == nil {
		t.Error("bad config accepted")
	}
}

func TestDefaultConfigValid(t *testing.T) {
	c := DefaultConfig()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Threads() != 32 {
		t.Errorf("threads = %d, want 32", c.Threads())
	}
	// Quarter bandwidth: 4 B/cycle at the same channel clock.
	if c.DRAM.ChannelBytes != 4 {
		t.Errorf("channel bytes = %d", c.DRAM.ChannelBytes)
	}
}
