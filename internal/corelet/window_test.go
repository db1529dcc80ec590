package corelet

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/isa"
)

// The tests in this file check that running corelets ahead in windows (Tick)
// is exact: a twin cluster driven one corelet-cycle at a time (TickCore)
// must issue the same port reads on the same ticks and end in the same
// state, down to every counter, register and local-memory word.

// Loop counters live in r20..r23 (one per nesting level); random
// instructions never write them, so every counted loop terminates.
const (
	loopReg     = 20
	maxLoopNest = 2
	testLocal   = 256 // local memory bytes per corelet in these tests
)

var (
	randALU = []isa.Op{isa.ADD, isa.SUB, isa.MUL, isa.DIV, isa.REM, isa.AND, isa.OR, isa.XOR,
		isa.SLL, isa.SRL, isa.SRA, isa.SLT, isa.SLTU, isa.MIN, isa.MAX,
		isa.ADDI, isa.ANDI, isa.ORI, isa.XORI, isa.SLLI, isa.SRLI, isa.SRAI, isa.SLTI, isa.LUI,
		isa.NOP, isa.CSRR}
	randFPU = []isa.Op{isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV, isa.FSQRT, isa.FMIN, isa.FMAX,
		isa.FLT, isa.FLE, isa.FEQ, isa.CVTIF, isa.CVTFI}
	randBranch = []isa.Op{isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU}
)

// progGen builds random terminating programs: straight-line ALU, FPU,
// local-memory, global-load, barrier and halt instructions, forward
// branches and jumps that skip whole statements, and counted loops.
type progGen struct {
	rng   *rand.Rand
	insts []isa.Inst
}

func (g *progGen) reg() uint8 { return uint8(g.rng.Intn(loopReg)) }

func (g *progGen) emit(in isa.Inst) int {
	g.insts = append(g.insts, in)
	return len(g.insts) - 1
}

// block emits n statements at loop depth d.
func (g *progGen) block(n, d int) {
	for i := 0; i < n; i++ {
		g.stmt(d)
	}
}

func (g *progGen) stmt(d int) {
	r := g.rng.Intn(100)
	switch {
	case r < 30:
		op := randALU[g.rng.Intn(len(randALU))]
		imm := int32(g.rng.Intn(64) - 16)
		if op == isa.CSRR {
			imm = int32(g.rng.Intn(isa.CSRNumThreads + 1))
		}
		g.emit(isa.Inst{Op: op, Rd: g.reg(), Rs1: g.reg(), Rs2: g.reg(), Imm: imm})
	case r < 45:
		op := randFPU[g.rng.Intn(len(randFPU))]
		g.emit(isa.Inst{Op: op, Rd: g.reg(), Rs1: g.reg(), Rs2: g.reg()})
	case r < 58:
		// Local memory through r0, so every address is in range.
		op := isa.LW
		if g.rng.Intn(2) == 0 {
			op = isa.SW
		}
		g.emit(isa.Inst{Op: op, Rd: g.reg(), Rs2: g.reg(), Imm: int32(4 * g.rng.Intn(testLocal/4))})
	case r < 64:
		op := isa.LDG
		if g.rng.Intn(3) == 0 {
			op = isa.LDS
		}
		g.emit(isa.Inst{Op: op, Rd: g.reg(), Rs1: g.reg(), Imm: int32(4 * g.rng.Intn(64))})
	case r < 67:
		g.emit(isa.Inst{Op: isa.BAR})
	case r < 68:
		g.emit(isa.Inst{Op: isa.HALT})
	case r < 80:
		// Forward branch or jump over the next few statements.
		op := randBranch[g.rng.Intn(len(randBranch))]
		switch g.rng.Intn(4) {
		case 0:
			op = isa.J
		case 1:
			op = isa.JAL
		}
		at := g.emit(isa.Inst{Op: op, Rd: g.reg(), Rs1: g.reg(), Rs2: g.reg()})
		g.block(1+g.rng.Intn(3), d)
		g.insts[at].Imm = int32(len(g.insts))
	case d < maxLoopNest:
		cnt := uint8(loopReg + d)
		g.emit(isa.Inst{Op: isa.ADDI, Rd: cnt, Imm: int32(1 + g.rng.Intn(6))})
		top := len(g.insts)
		g.block(2+g.rng.Intn(8), d+1)
		g.emit(isa.Inst{Op: isa.ADDI, Rd: cnt, Rs1: cnt, Imm: -1})
		g.emit(isa.Inst{Op: isa.BNE, Rs1: cnt, Imm: int32(top)})
	default:
		g.emit(isa.Inst{Op: isa.ADDI, Rd: g.reg(), Rs1: g.reg(), Imm: 1})
	}
}

func randProgram(seed int64) *isa.Program {
	g := &progGen{rng: rand.New(rand.NewSource(seed))}
	// Seed the registers with distinct per-thread values so contexts take
	// different paths.
	for r := uint8(1); r < loopReg; r++ {
		g.emit(isa.Inst{Op: isa.CSRR, Rd: r, Imm: isa.CSRThreadID})
		g.emit(isa.Inst{Op: isa.XORI, Rd: r, Rs1: r, Imm: int32(g.rng.Intn(1 << 11))})
	}
	g.block(20+g.rng.Intn(40), 0)
	g.emit(isa.Inst{Op: isa.HALT})
	return &isa.Program{Name: fmt.Sprintf("rand%d", seed), Insts: g.insts}
}

// mix hashes its arguments into a well-spread word.
func mix(vs ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vs {
		h ^= v
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	return h
}

// portRead is one global-load timing access as the port saw it.
type portRead struct {
	tick         int64
	corelet, ctx int
	addr         uint32
	status       Status
}

// scriptRig is one cluster under test with its scripted memory side: the
// port answers Done, Pending or Retry as a fixed function of (tick,
// corelet, context, address), Pending loads wake a few ticks later, and the
// barrier releases every third arrival at once, plus all stragglers every
// barrierFlush ticks.
type scriptRig struct {
	cl      *Cluster
	tick    int64
	log     []portRead
	wakes   map[int64][]func()
	waiters []func()
	seed    uint64
	trace   []traceEvent
}

// traceEvent is one instruction issue seen by a Tracer.
type traceEvent struct {
	tick, cycle int64
	ctx, pc     int
}

func (r *scriptRig) traceCorelet(c int) {
	r.cl.SetTracer(c, func(cycle int64, ctx int, pc int, _ isa.Inst) {
		r.trace = append(r.trace, traceEvent{r.tick, cycle, ctx, pc})
	})
}

const barrierFlush = 97

type scriptPort struct {
	rig *scriptRig
	c   int
}

func (p scriptPort) Read(ctx int, addr uint32, ready func()) Status {
	r := p.rig
	h := mix(r.seed, uint64(r.tick), uint64(p.c), uint64(ctx), uint64(addr))
	st := Done
	switch h % 10 {
	case 6, 7:
		st = Pending
		due := r.tick + 1 + int64(h>>8%24)
		r.wakes[due] = append(r.wakes[due], ready)
	case 8, 9:
		st = Retry
	}
	r.log = append(r.log, portRead{r.tick, p.c, ctx, addr, st})
	return st
}

func newRig(t *testing.T, code *Code, corelets, contexts int, seed uint64) *scriptRig {
	t.Helper()
	r := &scriptRig{wakes: map[int64][]func(){}, seed: seed}
	ports := make([]GlobalPort, corelets)
	for c := range ports {
		ports[c] = scriptPort{rig: r, c: c}
	}
	read := func(addr uint32) uint32 { return uint32(mix(seed, uint64(addr))) }
	cl, err := NewCluster(Config{Corelets: corelets, Contexts: contexts, LocalBytes: testLocal,
		Latencies: DefaultLatencies()}, code, ports, read)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetBarrier(func(release func()) {
		r.waiters = append(r.waiters, release)
		if len(r.waiters) == 3 {
			r.releaseBarrier()
		}
	})
	r.cl = cl
	return r
}

func (r *scriptRig) releaseBarrier() {
	ws := r.waiters
	r.waiters = nil
	for _, w := range ws {
		w()
	}
}

// deliver runs the between-tick events due before tick t.
func (r *scriptRig) deliver(t int64) {
	if ws, ok := r.wakes[t]; ok {
		delete(r.wakes, t)
		for _, w := range ws {
			w()
		}
	}
	if t%barrierFlush == 0 {
		r.releaseBarrier()
	}
}

// nextEvent returns the first tick after t with a between-tick event.
func (r *scriptRig) nextEvent(t int64) int64 {
	next := t - t%barrierFlush + barrierFlush
	for due := range r.wakes {
		if due > t && due < next {
			next = due
		}
	}
	return next
}

const maxTestTicks = 400000

// runWindowed drives the cluster with Tick, fast-forwarding dead stretches
// through NextWorkTicks/SkipTicks as the engine does.
func (r *scriptRig) runWindowed(t *testing.T) {
	for r.tick = 1; r.tick < maxTestTicks && !r.cl.Halted(); r.tick++ {
		r.deliver(r.tick)
		if n := r.cl.NextWorkTicks(); n > 1 {
			// Ticks r.tick .. r.tick+n-2 cannot issue; stop short of the
			// next event.
			k := n - 1
			if e := r.nextEvent(r.tick) - r.tick; e < k {
				k = e
			}
			r.cl.SkipTicks(k)
			r.tick += k - 1
			continue
		}
		r.cl.Tick()
	}
	if !r.cl.Halted() {
		t.Fatalf("windowed cluster did not halt in %d ticks", maxTestTicks)
	}
}

// runStepped drives the twin with TickCore: every tick, each live corelet
// gets slots cycles, handed over either as one TickCore(c, slots) call or,
// the reference sweep, as slots one-cycle calls.
func (r *scriptRig) runStepped(t *testing.T, slots int, batched bool) {
	for r.tick = 1; r.tick < maxTestTicks && !r.cl.Halted(); r.tick++ {
		r.deliver(r.tick)
		for c := 0; c < r.cl.Corelets(); c++ {
			if r.cl.CoreHalted(c) {
				continue
			}
			if batched {
				r.cl.TickCore(c, slots)
				continue
			}
			for i := 0; i < slots; i++ {
				r.cl.TickCore(c, 1)
			}
		}
	}
	if !r.cl.Halted() {
		t.Fatalf("stepped cluster did not halt in %d ticks", maxTestTicks)
	}
}

// randRigs runs drive on a pair of clusters for each of 60 random programs
// and geometries, and reports every difference between the pair: the
// ordered port reads, tracer events, counters, registers, local memories
// and scheduler state. Even seeds trace one corelet; a traced corelet never
// runs ahead, so its events must carry the same ticks in both.
func randRigs(t *testing.T, drive func(a, b *scriptRig)) {
	geoms := []struct{ corelets, contexts int }{{1, 1}, {3, 4}, {8, 4}, {5, 2}, {2, 7}, {70, 3}}
	var reads, insts int64
	for seed := int64(1); seed <= 60; seed++ {
		g := geoms[seed%int64(len(geoms))]
		prog := randProgram(seed)
		code, err := Decode(prog, DefaultLatencies())
		if err != nil {
			t.Fatal(err)
		}
		a := newRig(t, code, g.corelets, g.contexts, uint64(seed))
		b := newRig(t, code, g.corelets, g.contexts, uint64(seed))
		if seed%2 == 0 {
			a.traceCorelet(int(seed) % g.corelets)
			b.traceCorelet(int(seed) % g.corelets)
		}
		drive(a, b)
		name := fmt.Sprintf("seed %d (%dx%d, %d insts)", seed, g.corelets, g.contexts, len(prog.Insts))
		if a.tick != b.tick {
			t.Errorf("%s: halted at tick %d vs %d", name, a.tick, b.tick)
		}
		if !reflect.DeepEqual(a.log, b.log) {
			n := min(len(a.log), len(b.log))
			i := 0
			for i < n && a.log[i] == b.log[i] {
				i++
			}
			t.Errorf("%s: port reads diverge at #%d of %d/%d", name, i, len(a.log), len(b.log))
			if i < n {
				t.Errorf("  %+v\n  %+v", a.log[i], b.log[i])
			}
			continue
		}
		if !reflect.DeepEqual(a.trace, b.trace) {
			t.Errorf("%s: traces differ (%d vs %d events)", name, len(a.trace), len(b.trace))
		}
		if sa, sb := a.cl.Stats(), b.cl.Stats(); sa != sb {
			t.Errorf("%s: stats differ\n  %+v\n  %+v", name, sa, sb)
		}
		if !reflect.DeepEqual(a.cl.regs, b.cl.regs) {
			t.Errorf("%s: register files differ", name)
		}
		if !reflect.DeepEqual(a.cl.locals, b.cl.locals) {
			t.Errorf("%s: local memories differ", name)
		}
		if !reflect.DeepEqual(a.cl.ctxs, b.cl.ctxs) || !reflect.DeepEqual(a.cl.cores, b.cl.cores) {
			t.Errorf("%s: scheduler state differs", name)
		}
		reads += int64(len(a.log))
		insts += int64(a.cl.Stats().Instructions)
	}
	if reads == 0 || insts == 0 {
		t.Fatal("random programs issued no global loads or no instructions")
	}
}

// TestWindowsMatchCycleSteppedTwin is the differential test of the window
// rules: Tick, with corelets running ahead and dead stretches skipped,
// against the one-cycle-per-corelet sweep.
func TestWindowsMatchCycleSteppedTwin(t *testing.T) {
	randRigs(t, func(a, b *scriptRig) {
		a.runWindowed(t)
		b.runStepped(t, 1, false)
	})
}

// TestTickCoreSlotsMatchSingleCycles checks the multicore model's use of
// TickCore: n back-to-back cycles in one call equal n one-cycle calls.
func TestTickCoreSlotsMatchSingleCycles(t *testing.T) {
	randRigs(t, func(a, b *scriptRig) {
		a.runStepped(t, 3, true)
		b.runStepped(t, 3, false)
	})
}

// TestWindowLocalFaultPanicsAlike checks that a local-memory fault raised
// while a corelet runs ahead panics with the same message as the
// cycle-stepped path.
func TestWindowLocalFaultPanicsAlike(t *testing.T) {
	prog := &isa.Program{Name: "fault", Insts: []isa.Inst{
		{Op: isa.ADDI, Rd: 2, Imm: 7},
		{Op: isa.ADDI, Rd: 2, Rs1: 2, Imm: 1},
		{Op: isa.MUL, Rd: 3, Rs1: 2, Rs2: 2},
		{Op: isa.SW, Rs2: 3, Imm: testLocal + 8},
		{Op: isa.HALT},
	}}
	code, err := Decode(prog, DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	catch := func(step func(r *scriptRig)) (msg string, tick int64) {
		r := newRig(t, code, 2, 2, 1)
		defer func() {
			if v := recover(); v != nil {
				msg, tick = fmt.Sprint(v), r.tick
			}
		}()
		for r.tick = 1; r.tick < 100; r.tick++ {
			step(r)
		}
		return "", r.tick
	}
	wmsg, wtick := catch(func(r *scriptRig) { r.cl.Tick() })
	smsg, stick := catch(func(r *scriptRig) {
		for c := 0; c < r.cl.Corelets(); c++ {
			r.cl.TickCore(c, 1)
		}
	})
	if wmsg == "" || wmsg != smsg {
		t.Fatalf("windowed panic %q, stepped panic %q", wmsg, smsg)
	}
	if wtick != 1 || stick <= wtick {
		t.Errorf("fault at tick %d windowed, %d stepped: want it inside the first window", wtick, stick)
	}
}

// TestWindowCapBoundsPrivateLoop checks that a kernel spinning in a private
// loop returns to the caller every maxWindow cycles, and that a corelet
// running ahead keeps the cluster busy for the time-skipping protocol even
// when its window ended inside an idle stretch.
func TestWindowCapBoundsPrivateLoop(t *testing.T) {
	// Nine NOPs put the loop's FDIV (14-cycle latency) at cycle 250, so
	// the first window ends at its cap, cycle 256, waiting for cycle 264.
	insts := make([]isa.Inst, 9, 11)
	insts = append(insts, isa.Inst{Op: isa.FDIV, Rd: 1, Rs1: 1, Rs2: 2}, isa.Inst{Op: isa.J, Imm: 9})
	c := newCorelet(t, &isa.Program{Name: "spin", Insts: insts}, 1, &alwaysHit{}, flatMem(nil))
	c.Tick()
	if got := c.cores[0].cycle; got != maxWindow {
		t.Fatalf("after one Tick the corelet is at cycle %d, want %d", got, maxWindow)
	}
	if got := c.cores[0].earliest; got != 264 {
		t.Fatalf("window ended waiting for cycle %d, want 264", got)
	}
	if n := c.NextWorkTicks(); n != 1 {
		t.Errorf("NextWorkTicks = %d while a corelet runs ahead, want 1", n)
	}
	for i := 1; i < maxWindow; i++ {
		c.Tick()
	}
	if got := c.cores[0].cycle; got != maxWindow {
		t.Errorf("Ticks inside the window moved the corelet to cycle %d", got)
	}
	c.Tick()
	if got := c.cores[0].cycle; got != 2*maxWindow {
		t.Errorf("after the window the corelet is at cycle %d, want %d", got, 2*maxWindow)
	}
}
