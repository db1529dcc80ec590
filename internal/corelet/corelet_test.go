package corelet

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

// alwaysHit is a GlobalPort where every read completes immediately.
type alwaysHit struct{ reads []uint32 }

func (p *alwaysHit) Read(ctx int, addr uint32, ready func()) Status {
	p.reads = append(p.reads, addr)
	return Done
}

// slowPort makes every read Pending and wakes waiters on demand.
type slowPort struct{ wake []func() }

func (p *slowPort) Read(ctx int, addr uint32, ready func()) Status {
	p.wake = append(p.wake, ready)
	return Pending
}

// retryOnce bounces the first attempt of each address, then hits.
type retryOnce struct{ seen map[uint32]bool }

func (p *retryOnce) Read(ctx int, addr uint32, ready func()) Status {
	if p.seen == nil {
		p.seen = map[uint32]bool{}
	}
	if !p.seen[addr] {
		p.seen[addr] = true
		return Retry
	}
	return Done
}

func flatMem(words map[uint32]uint32) Reader {
	return func(addr uint32) uint32 { return words[addr] }
}

func build(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// newCorelet builds a one-corelet cluster with its own decoded program.
func newCorelet(t *testing.T, prog *isa.Program, contexts int, port GlobalPort, read Reader) *Cluster {
	t.Helper()
	return newCluster(t, prog, 1, contexts, port, read)
}

// newCluster builds an n-corelet cluster whose corelets share one port.
func newCluster(t *testing.T, prog *isa.Program, corelets, contexts int, port GlobalPort, read Reader) *Cluster {
	t.Helper()
	code, err := Decode(prog, DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	ports := make([]GlobalPort, corelets)
	for i := range ports {
		ports[i] = port
	}
	cl, err := NewCluster(Config{Corelets: corelets, Contexts: contexts, LocalBytes: 4096, Latencies: DefaultLatencies()}, code, ports, read)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func run(c *Cluster, maxTicks int) int {
	for i := 0; i < maxTicks; i++ {
		if c.Halted() {
			return i
		}
		c.Tick()
	}
	return maxTicks
}

func TestNewValidation(t *testing.T) {
	code, err := Decode(build(t, "halt"), DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	port := &alwaysHit{}
	rd := flatMem(nil)
	cfg := Config{Corelets: 1, Contexts: 4, LocalBytes: 4096, Latencies: DefaultLatencies()}
	if _, err := Decode(nil, DefaultLatencies()); err == nil {
		t.Error("nil program accepted")
	}
	bad := cfg
	bad.LocalBytes = 0
	if _, err := NewCluster(bad, code, []GlobalPort{port}, rd); err == nil {
		t.Error("zero local accepted")
	}
	bad = cfg
	bad.Contexts = 0
	if _, err := NewCluster(bad, code, []GlobalPort{port}, rd); err == nil {
		t.Error("zero contexts accepted")
	}
	if _, err := NewCluster(cfg, code, []GlobalPort{nil}, rd); err == nil {
		t.Error("nil port accepted")
	}
}

func TestStraightLineArithmetic(t *testing.T) {
	// Each context computes 6*7 and stores it to local[ctx*4].
	prog := build(t, `
		csrr r1, contextid
		slli r1, r1, 2      ; byte offset
		li   r2, 6
		li   r3, 7
		mul  r4, r2, r3
		sw   r4, 0(r1)
		halt
	`)
	c := newCorelet(t, prog, 4, &alwaysHit{}, flatMem(nil))
	if run(c, 1000) >= 1000 {
		t.Fatal("did not halt")
	}
	for ctx := 0; ctx < 4; ctx++ {
		if got := c.ReadLocal(0, uint32(ctx*4)); got != 42 {
			t.Errorf("ctx %d result = %d", ctx, got)
		}
	}
	s := c.Stats()
	if s.Instructions != 4*7 {
		t.Errorf("instructions = %d, want 28", s.Instructions)
	}
}

func TestCSRValues(t *testing.T) {
	prog := build(t, `
		csrr r1, coreletid
		csrr r2, ncorelets
		csrr r3, ncontexts
		csrr r4, tid
		csrr r5, nthreads
		csrr r6, contextid
		sw   r1, 0(r0)
		sw   r2, 4(r0)
		sw   r3, 8(r0)
		sw   r5, 12(r0)
		halt
	`)
	c := newCluster(t, prog, 8, 1, &alwaysHit{}, flatMem(nil))
	run(c, 100)
	if c.ReadLocal(2, 0) != 2 || c.ReadLocal(2, 4) != 8 || c.ReadLocal(2, 8) != 1 || c.ReadLocal(2, 12) != 8 {
		t.Errorf("CSRs = %d %d %d %d", c.ReadLocal(2, 0), c.ReadLocal(2, 4), c.ReadLocal(2, 8), c.ReadLocal(2, 12))
	}
}

func TestLoopAndBranchStats(t *testing.T) {
	prog := build(t, `
		li r1, 10
		li r2, 0
	loop:
		add  r2, r2, r1
		addi r1, r1, -1
		bnez r1, loop
		sw   r2, 0(r0)
		halt
	`)
	c := newCorelet(t, prog, 1, &alwaysHit{}, flatMem(nil))
	run(c, 1000)
	if got := c.ReadLocal(0, 0); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
	s := c.Stats()
	if s.CondBranches != 10 || s.TakenCond != 9 {
		t.Errorf("branches = %d taken = %d, want 10/9", s.CondBranches, s.TakenCond)
	}
}

func TestGlobalLoadHit(t *testing.T) {
	prog := build(t, `
		li  r1, 0x1000
		ldg r2, 4(r1)
		sw  r2, 0(r0)
		halt
	`)
	port := &alwaysHit{}
	c := newCorelet(t, prog, 1, port, flatMem(map[uint32]uint32{0x1004: 99}))
	run(c, 100)
	if c.ReadLocal(0, 0) != 99 {
		t.Errorf("loaded %d", c.ReadLocal(0, 0))
	}
	if len(port.reads) != 1 || port.reads[0] != 0x1004 {
		t.Errorf("port reads = %v", port.reads)
	}
	if c.Stats().GlobalReads != 1 {
		t.Errorf("GlobalReads = %d", c.Stats().GlobalReads)
	}
}

func TestGlobalLoadPendingBlocksContext(t *testing.T) {
	prog := build(t, `
		li  r1, 0
		ldg r2, 0(r1)
		sw  r2, 0(r0)
		halt
	`)
	port := &slowPort{}
	c := newCorelet(t, prog, 1, port, flatMem(map[uint32]uint32{0: 7}))
	for i := 0; i < 20; i++ {
		c.Tick()
	}
	if c.Halted() {
		t.Fatal("halted while load outstanding")
	}
	if c.Stats().IdleCycles == 0 {
		t.Error("no idle cycles while blocked")
	}
	port.wake[0]()
	run(c, 100)
	if !c.Halted() || c.ReadLocal(0, 0) != 7 {
		t.Errorf("halted=%v local=%d", c.Halted(), c.ReadLocal(0, 0))
	}
}

func TestMultithreadingHidesMemoryLatency(t *testing.T) {
	// With one context blocked on memory, other contexts keep issuing.
	prog := build(t, `
		csrr r1, contextid
		bnez r1, compute
		li   r3, 0
		ldg  r2, 0(r3)     ; ctx 0 blocks here
		j    fin
	compute:
		li  r4, 100
	cl:	addi r4, r4, -1
		bnez r4, cl
	fin:
		halt
	`)
	port := &slowPort{}
	c := newCorelet(t, prog, 4, port, flatMem(nil))
	for i := 0; i < 2000 && !c.Halted(); i++ {
		c.Tick()
		if len(port.wake) > 0 && i == 1500 {
			port.wake[0]()
		}
	}
	if !c.Halted() {
		t.Fatal("did not halt")
	}
	s := c.Stats()
	// ~3 contexts x ~204 instructions dominate; busy cycles must be far
	// above idle-only execution.
	if s.BusyCycles < 500 {
		t.Errorf("busy cycles = %d; multithreading did not overlap", s.BusyCycles)
	}
}

func TestRetryReissues(t *testing.T) {
	prog := build(t, `
		li  r1, 0
		ldg r2, 0(r1)
		sw  r2, 0(r0)
		halt
	`)
	c := newCorelet(t, prog, 1, &retryOnce{}, flatMem(map[uint32]uint32{0: 5}))
	run(c, 100)
	if !c.Halted() || c.ReadLocal(0, 0) != 5 {
		t.Errorf("halted=%v val=%d", c.Halted(), c.ReadLocal(0, 0))
	}
	if c.Stats().RetryCycles != 1 {
		t.Errorf("RetryCycles = %d", c.Stats().RetryCycles)
	}
}

func TestR0IsHardwiredZero(t *testing.T) {
	prog := build(t, `
		li  r0, 42
		sw  r0, 0(r0)
		halt
	`)
	c := newCorelet(t, prog, 1, &alwaysHit{}, flatMem(nil))
	run(c, 100)
	if c.ReadLocal(0, 0) != 0 {
		t.Errorf("r0 = %d after write", c.ReadLocal(0, 0))
	}
}

func TestCallRet(t *testing.T) {
	prog := build(t, `
		li   r1, 5
		call double
		sw   r1, 0(r0)
		halt
	double:
		add  r1, r1, r1
		ret
	`)
	c := newCorelet(t, prog, 1, &alwaysHit{}, flatMem(nil))
	run(c, 100)
	if c.ReadLocal(0, 0) != 10 {
		t.Errorf("call/ret result = %d", c.ReadLocal(0, 0))
	}
}

func TestFloatPath(t *testing.T) {
	prog := build(t, `
		lif   r1, 2.0
		lif   r2, 0.5
		fmul  r3, r1, r2      ; 1.0
		fadd  r3, r3, r1      ; 3.0
		fsqrt r4, r1
		fmul  r4, r4, r4      ; ~2.0
		fsub  r4, r4, r1      ; ~0
		sw    r3, 0(r0)
		halt
	`)
	c := newCorelet(t, prog, 1, &alwaysHit{}, flatMem(nil))
	run(c, 200)
	if isa.F32(c.ReadLocal(0, 0)) != 3.0 {
		t.Errorf("float result = %v", isa.F32(c.ReadLocal(0, 0)))
	}
}

func TestLocalOutOfBoundsPanics(t *testing.T) {
	prog := build(t, `
		li r1, 1<<20
		lw r2, 0(r1)
		halt
	`)
	c := newCorelet(t, prog, 1, &alwaysHit{}, flatMem(nil))
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	run(c, 10)
}

func TestSTGPanics(t *testing.T) {
	prog := &isa.Program{Name: "stg", Insts: []isa.Inst{{Op: isa.STG}, {Op: isa.HALT}}}
	c := newCorelet(t, prog, 1, &alwaysHit{}, flatMem(nil))
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	run(c, 10)
}

func TestIndirectLocalAccess(t *testing.T) {
	// The irregular-access pattern of BMLAs: counter[bin]++ with a
	// data-dependent bin.
	prog := build(t, `
		li  r1, 3          ; bin
		slli r2, r1, 2
		lw  r3, 64(r2)
		addi r3, r3, 1
		sw  r3, 64(r2)
		halt
	`)
	c := newCorelet(t, prog, 1, &alwaysHit{}, flatMem(nil))
	c.WriteLocal(0, 64+12, 41)
	run(c, 100)
	if got := c.ReadLocal(0, 64+12); got != 42 {
		t.Errorf("counter = %d", got)
	}
}

func TestTakenBranchCostsBubble(t *testing.T) {
	// A tight taken-branch loop on one context must accumulate idle cycles
	// from refetch bubbles.
	prog := build(t, `
		li r1, 50
	l:	addi r1, r1, -1
		bnez r1, l
		halt
	`)
	c := newCorelet(t, prog, 1, &alwaysHit{}, flatMem(nil))
	ticks := run(c, 10000)
	s := c.Stats()
	if uint64(ticks) <= s.Instructions {
		t.Errorf("ticks %d <= instructions %d; no branch bubbles", ticks, s.Instructions)
	}
}

func TestStreamWalkerLDS(t *testing.T) {
	// lds must walk: stride 8 bytes, chunk of 2 words, then a +16 fixup.
	prog := build(t, `
		li  r1, 0          ; stream address
		li  r4, 8          ; stride
		li  r5, 16         ; row fixup
		li  r6, 2          ; chunk words
		mv  r7, r6
		lds r11
		lds r12
		lds r13
		sw  r11, 0(r0)
		sw  r12, 4(r0)
		sw  r13, 8(r0)
		sw  r1, 12(r0)     ; final walker address
		halt
	`)
	mem := map[uint32]uint32{0: 100, 8: 200, 32: 300}
	c := newCorelet(t, prog, 1, &alwaysHit{}, flatMem(mem))
	run(c, 200)
	// Addresses: 0, 8 (chunk ends: +8 stride then +16 fixup -> 32), 32.
	if c.ReadLocal(0, 0) != 100 || c.ReadLocal(0, 4) != 200 || c.ReadLocal(0, 8) != 300 {
		t.Errorf("lds values = %d %d %d", c.ReadLocal(0, 0), c.ReadLocal(0, 4), c.ReadLocal(0, 8))
	}
	// After the third lds: 32+8=40, countdown 1.
	if c.ReadLocal(0, 12) != 40 {
		t.Errorf("walker address = %d, want 40", c.ReadLocal(0, 12))
	}
}

func TestLDSRetryDoesNotAdvanceWalker(t *testing.T) {
	prog := build(t, `
		li  r1, 0
		li  r4, 4
		li  r5, 0
		li  r6, 16
		mv  r7, r6
		lds r11
		sw  r11, 0(r0)
		sw  r1, 4(r0)
		halt
	`)
	c := newCorelet(t, prog, 1, &retryOnce{}, flatMem(map[uint32]uint32{0: 55}))
	run(c, 100)
	if c.ReadLocal(0, 0) != 55 {
		t.Errorf("lds after retry = %d", c.ReadLocal(0, 0))
	}
	if c.ReadLocal(0, 4) != 4 {
		t.Errorf("walker advanced %d times (addr %d), want exactly once", c.ReadLocal(0, 4)/4, c.ReadLocal(0, 4))
	}
}

func TestBarrierNoCoordinatorIsNop(t *testing.T) {
	prog := build(t, `
		bar
		li r1, 7
		sw r1, 0(r0)
		halt
	`)
	c := newCorelet(t, prog, 2, &alwaysHit{}, flatMem(nil))
	run(c, 100)
	if !c.Halted() || c.ReadLocal(0, 0) != 7 {
		t.Error("bar without coordinator should be a no-op")
	}
}

func TestBarrierBlocksUntilRelease(t *testing.T) {
	prog := build(t, `
		bar
		li r1, 1
		sw r1, 0(r0)
		halt
	`)
	c := newCorelet(t, prog, 1, &alwaysHit{}, flatMem(nil))
	var releases []func()
	c.SetBarrier(func(r func()) { releases = append(releases, r) })
	for i := 0; i < 50; i++ {
		c.Tick()
	}
	if c.Halted() {
		t.Fatal("halted while barrier outstanding")
	}
	if len(releases) != 1 {
		t.Fatalf("barrier arrivals = %d", len(releases))
	}
	releases[0]()
	run(c, 100)
	if !c.Halted() || c.ReadLocal(0, 0) != 1 {
		t.Error("did not finish after barrier release")
	}
}
