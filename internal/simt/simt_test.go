package simt

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/kernels"
	"repro/internal/layout"
	"repro/internal/workloads"
)

func testParams() arch.Params {
	p := arch.Default()
	p.Corelets = 8
	p.Contexts = 2
	p.VWSWarpWidth = 4
	p.PrefetchEntries = 8
	return p
}

// launchFor builds a streamed launch of b (seed 42) and returns it with the
// golden per-thread states the run must reproduce. The launch's Sources are
// consumed by the processor that packs them, so build one per processor.
func launchFor(t *testing.T, b *workloads.Benchmark, p arch.Params, records int) (core.Launch, layout.Layout, kernels.StateLayout, [][]uint32) {
	t.Helper()
	lay := layout.Layout{
		RowBytes: p.DRAM.RowBytes, Corelets: p.Corelets, Contexts: p.Contexts,
		Interleave: layout.Word,
	}
	if err := lay.Validate(); err != nil {
		t.Fatal(err)
	}
	sl, err := kernels.SharedState(b.K, p.SharedMemBytes, p.Corelets, p.Contexts)
	if err != nil {
		t.Fatal(err)
	}
	args := kernels.ArgsAndConsts(b.K, lay.Walk(), sl, records)
	l := core.Launch{Prog: b.K.Prog, Interleave: layout.Word, Sources: b.Sources(p.Threads(), records, 42), Args: args}
	return l, lay, sl, b.GoldenStatesStreamed(p.Threads(), records, 42)
}

func records(b *workloads.Benchmark) int {
	if b.K.RecordWords >= 8 {
		return 12
	}
	return 48
}

func runVariant(t *testing.T, v Variant, b *workloads.Benchmark) (*SM, Result) {
	t.Helper()
	p := testParams()
	n := records(b)
	l, lay, sl, want := launchFor(t, b, p, n)
	m, err := NewSM(p, energy.Default(), v, l)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	got := workloads.ExtractStates(b, sl, lay, m.ReadShared)
	for th := range want {
		for i := range want[th] {
			if got[th][i] != want[th][i] {
				t.Fatalf("%s/%s: thread %d state[%d] = %#x, want %#x",
					v, b.Name(), th, i, got[th][i], want[th][i])
			}
		}
	}
	return m, res
}

func TestAllBenchmarksOnGPGPU(t *testing.T) {
	for _, b := range workloads.All() {
		b := b
		t.Run(b.Name(), func(t *testing.T) { runVariant(t, GPGPU, b) })
	}
}

func TestAllBenchmarksOnVWS(t *testing.T) {
	for _, b := range workloads.All() {
		b := b
		t.Run(b.Name(), func(t *testing.T) { runVariant(t, VWS, b) })
	}
}

func TestAllBenchmarksOnVWSRow(t *testing.T) {
	for _, b := range workloads.All() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			m, res := runVariant(t, VWSRow, b)
			if res.Prefetch.Prefetches == 0 {
				t.Error("VWS-row issued no row prefetches")
			}
			if res.Prefetch.PrematureEvicts != 0 {
				t.Error("VWS-row flow control violated")
			}
			_ = m
		})
	}
}

func TestDivergenceOccursOnBranchyKernels(t *testing.T) {
	_, res := runVariant(t, GPGPU, workloads.CountBench())
	if res.SM.Divergences == 0 {
		t.Error("count's data-dependent filter caused no warp divergence")
	}
	// Divergence wastes lanes: thread instructions per warp instruction
	// must be measurably below full width.
	util := float64(res.SM.ThreadInsts) / float64(res.SM.WarpInsts) / 8.0
	if util > 0.98 {
		t.Errorf("lane utilization %.3f despite divergence", util)
	}
}

func TestVWSNarrowWarpsLoseLessOnBranches(t *testing.T) {
	b := workloads.CountBench()
	_, g := runVariant(t, GPGPU, b)
	_, v := runVariant(t, VWS, b)
	gUtil := float64(g.SM.ThreadInsts) / (float64(g.SM.WarpInsts) * 8)
	vUtil := float64(v.SM.ThreadInsts) / (float64(v.SM.WarpInsts) * 4)
	if vUtil <= gUtil {
		t.Errorf("VWS lane utilization %.3f not above GPGPU %.3f", vUtil, gUtil)
	}
}

func TestCoalescingKeepsTransactionsLow(t *testing.T) {
	// Word-interleaved loads from a full-width warp coalesce: transactions
	// per global read must be far below one per lane.
	_, res := runVariant(t, GPGPU, workloads.VarianceBench())
	loads := float64(res.SM.ThreadInsts) // upper bound proxy; use DRAM reads instead
	_ = loads
	words := uint64(testParams().Threads() * 48)
	if res.SM.Transactions >= uint64(words) {
		t.Errorf("transactions %d not coalesced for %d loaded words", res.SM.Transactions, words)
	}
}

func TestSharedMemoryConflictFree(t *testing.T) {
	// The banked state layout keeps lane i in bank i: indirect accesses
	// must not serialize (Section III-E).
	_, res := runVariant(t, GPGPU, workloads.CountBench())
	if res.SM.BankConflict > res.SM.WarpInsts/100 {
		t.Errorf("bank conflicts %d on a conflict-free layout", res.SM.BankConflict)
	}
}

func TestGPGPURowLocalityGood(t *testing.T) {
	// Lockstep warps stream rows in order: the DRAM row miss rate of the
	// block stream must stay near the sequential bound.
	_, res := runVariant(t, GPGPU, workloads.VarianceBench())
	if rate := res.DRAM.RowMissRate(); rate > 0.25 {
		t.Errorf("GPGPU row miss rate %.3f; warps not streaming in lockstep", rate)
	}
}

func TestNewSMValidation(t *testing.T) {
	p := testParams()
	b := workloads.CountBench()
	l, _, _, _ := launchFor(t, b, p, 8)
	bad := l
	bad.Interleave = layout.Slab
	if _, err := NewSM(p, energy.Default(), GPGPU, bad); err == nil {
		t.Error("non-Word layout accepted")
	}
	if _, err := NewSM(p, energy.Default(), GPGPU, core.Launch{Sources: l.Sources, Interleave: layout.Word}); err == nil {
		t.Error("nil program accepted")
	}
	pb := p
	pb.VWSWarpWidth = 3
	if _, err := NewSM(pb, energy.Default(), VWS, l); err == nil {
		t.Error("bad warp width accepted")
	}
}

func TestVariantString(t *testing.T) {
	if GPGPU.String() != "gpgpu" || VWS.String() != "vws" || VWSRow.String() != "vws-row" {
		t.Error("Variant.String wrong")
	}
}

// TestNestedDivergence executes a kernel with a divergent branch inside a
// divergent region and checks per-lane results against a scalar evaluation
// of the same logic.
func TestNestedDivergence(t *testing.T) {
	src := `
	lw   r1, 0(r0)          ; stream base
	csrr r2, coreletid
	lw   r3, 4(r0)
	mul  r2, r2, r3
	add  r1, r1, r2
	csrr r2, contextid
	lw   r3, 8(r0)
	mul  r2, r2, r3
	add  r1, r1, r2
	lw   r4, 12(r0)
	lw   r5, 16(r0)
	lw   r6, 20(r0)
	mv   r7, r6
	lw   r8, 24(r0)
	li   r11, 0             ; accumulator
loop:
	lds  r12
	li   r13, 100
	blt  r12, r13, small
	; big values: nested split on parity
	andi r14, r12, 1
	beqz r14, bigeven
	add  r11, r11, r12      ; big odd: add value
	j    next
bigeven:
	slli r14, r12, 1
	add  r11, r11, r14      ; big even: add 2x value
	j    next
small:
	addi r11, r11, 1        ; small: count
next:
	addi r8, r8, -1
	bnez r8, loop
	; state addr = 2048 + corelet*4 + context*1024
	csrr r2, coreletid
	slli r2, r2, 2
	addi r9, r2, 2048
	csrr r2, contextid
	slli r2, r2, 10
	add  r9, r9, r2
	sw   r11, 0(r9)
	halt
`
	p := testParams()
	prog, err := asm.Assemble("nested", src)
	if err != nil {
		t.Fatal(err)
	}
	lay := layout.Layout{RowBytes: p.DRAM.RowBytes, Corelets: p.Corelets, Contexts: p.Contexts, Interleave: layout.Word}
	const words = 32
	streams := make([][]uint32, lay.Threads())
	for th := range streams {
		streams[th] = make([]uint32, words)
		for i := range streams[th] {
			streams[th][i] = uint32((th*37 + i*53) % 200)
		}
	}
	w := lay.Walk()
	args := []uint32{0, uint32(w.CoreletMult), uint32(w.ContextMult), uint32(w.Stride),
		uint32(w.RowStep - w.Stride), uint32(w.ChunkWords), words}
	m, err := NewSM(p, energy.Default(), GPGPU, core.Launch{Prog: prog, Interleave: layout.Word, Streams: streams, Args: args})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.SM.Divergences == 0 {
		t.Error("no divergences recorded")
	}
	for c := 0; c < p.Corelets; c++ {
		for ctx := 0; ctx < p.Contexts; ctx++ {
			var want uint32
			for _, v := range streams[lay.ThreadID(c, ctx)] {
				switch {
				case v < 100:
					want++
				case v%2 == 1:
					want += v
				default:
					want += 2 * v
				}
			}
			got := m.ReadShared(0, uint32(2048+c*4+ctx*1024))
			if got != want {
				t.Errorf("lane %d warp %d = %d, want %d", c, ctx, got, want)
			}
		}
	}
}

// TestLDSAdvancesPerLane checks the hardware stream walker keeps per-lane
// state: lanes at different addresses advance independently.
func TestLDSAdvancesPerLane(t *testing.T) {
	_, res := runVariant(t, GPGPU, workloads.VarianceBench())
	if res.SM.ThreadInsts == 0 {
		t.Fatal("no instructions")
	}
	// Functional equality was already verified by runVariant; this test
	// exists to pin LDS under SIMT with the Word layout.
}

// TestJitterRobustness: results stay bit-exact under DRAM completion jitter
// on all three SIMT variants.
func TestJitterRobustness(t *testing.T) {
	for _, v := range []Variant{GPGPU, VWS, VWSRow} {
		b := workloads.CountBench()
		p := testParams()
		n := records(b)
		l, lay, sl, want := launchFor(t, b, p, n)
		m, err := NewSM(p, energy.Default(), v, l)
		if err != nil {
			t.Fatal(err)
		}
		m.InjectMemoryJitter(200, 5)
		if _, err := m.Run(0); err != nil {
			t.Fatal(err)
		}
		got := workloads.ExtractStates(b, sl, lay, m.ReadShared)
		for th := range want {
			for i := range want[th] {
				if got[th][i] != want[th][i] {
					t.Fatalf("%v: mismatch under jitter", v)
				}
			}
		}
	}
}
