// Package corelet models the simple MIMD cores of the paper's SSMC skeleton
// (Section IV-A): single-issue, in-order pipelines with 4-way hardware
// multithreading to cover short hazards, a small register file per context,
// a 4 KB corelet-local memory holding kernel arguments and the partially
// reduced live state, and an L1 I-cache fed by a one-time code broadcast.
//
// The corelet is memory-system agnostic: LDG timing goes through a
// GlobalPort, which the Millipede processor backs with the shared row
// prefetch buffer and the SSMC processor backs with a per-core L1 D-cache.
// Functional data always comes from the Reader (the DRAM word store), so
// results are identical across architectures by construction.
//
// A processor's corelets live together in a Cluster: every hot word of
// per-corelet state (PCs, register files, ready bitmaps, issue cooldowns,
// local memories) is an entry in a structure-of-arrays image indexed by
// (corelet, context). The interpreter runs over a predecoded Code image
// shared read-only by the whole cluster (the paper's one-time code
// broadcast): each instruction carries its class, issue latency and
// visibility resolved at decode time, and the datapath is evaluated in a
// single dispatch switch, so the steady-state cycle loop performs no table
// lookups, no per-corelet virtual calls, and no allocations.
//
// A corelet touches shared state only through global loads, the barrier and
// HALT; its live state stays in registers and local memory (Sections III-B
// and IV-A). The cluster exploits that isolation: each Tick visits the
// corelets in corelet order, and a visited corelet runs one window of
// cycles, not one cycle. The window's first cycle is the corelet's due
// cycle and may issue anything, at its exact global position. Later cycles
// run ahead of the cluster only while nothing outside the corelet can
// observe or change them: no context is parked on a wake, the instruction
// about to issue is corelet-private, and no tracer is installed. Results
// are therefore identical to a one-instruction-per-corelet-per-cycle sweep
// (see run for the rules and TestWindowsMatchCycleSteppedTwin for the
// differential check).
package corelet

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/isa"
)

// Status of a timing access to the global memory system.
type Status int

const (
	// Done: data available this cycle (hit).
	Done Status = iota
	// Pending: the context must sleep; the ready callback wakes it.
	Pending
	// Retry: structural stall (queue full); re-issue next cycle.
	Retry
)

// GlobalPort is the timing interface to die-stacked memory.
type GlobalPort interface {
	// Read models the timing of a global load by context ctx at addr.
	// ready is invoked when a Pending access completes.
	Read(ctx int, addr uint32, ready func()) Status
}

// Reader supplies functional data for global loads.
type Reader func(addr uint32) uint32

// Tracer observes every issued instruction when installed (nil = off).
type Tracer func(cycle int64, ctx int, pc int, in isa.Inst)

// BarrierFunc coordinates a processor-wide software barrier: the corelet
// calls it when a context executes BAR, passing the callback that releases
// the context once every participant has arrived. A nil coordinator makes
// BAR a no-op.
type BarrierFunc func(release func())

// Latencies in corelet cycles per instruction class; these are the simple
// energy-efficient pipeline depths the paper assumes, covered by 4-way
// multithreading.
type Latencies struct {
	ALU, Mul, Div, FPU, FDiv, Local, GlobalHit, TakenBranch int
}

// DefaultLatencies returns the model defaults.
func DefaultLatencies() Latencies {
	return Latencies{ALU: 1, Mul: 3, Div: 12, FPU: 4, FDiv: 14, Local: 2, GlobalHit: 2, TakenBranch: 2}
}

// Stats counts per-corelet execution events (the raw material for Table IV
// and the energy model).
type Stats struct {
	Instructions uint64
	CondBranches uint64
	TakenCond    uint64
	LocalAccess  uint64
	GlobalReads  uint64
	IdleCycles   uint64 // ticks with no ready context (memory stall / drained)
	BusyCycles   uint64 // ticks that issued an instruction
	RetryCycles  uint64 // structural stalls on the global port
	ClassCounts  [10]uint64
}

// dinst is one predecoded instruction: the hot fields of isa.Inst plus the
// class, issue latency and visibility resolved at decode time, packed to 16
// bytes so the fetch is a single shift-indexed load with no dependent table
// lookups.
type dinst struct {
	op           isa.Op
	class        isa.Class
	rd, rs1, rs2 uint8
	// visible marks the instructions other components can observe (LDG and
	// LDS reach a port, BAR the barrier, HALT the halt state the engine
	// polls, STG faults): they issue only at their exact global position.
	// Every other instruction is corelet-private.
	visible bool
	lat     uint16
	imm     int32
	_       uint32 // pad to 16 bytes: power-of-two stride for ops[pc]
}

// Code is a program predecoded against one latency configuration. A
// processor decodes its kernel once and shares the image read-only across
// all its corelets (the paper's one-time code broadcast), keeping the
// interpreter's instruction fetches within one small array.
type Code struct {
	prog *isa.Program
	ops  []dinst
	// takenLat is the one latency the decoded lat field cannot carry: a
	// branch's depends on its dynamic outcome, not the opcode.
	takenLat int64
}

// Decode predecodes prog against lat. The result is immutable and safe to
// share across corelets and clusters.
func Decode(prog *isa.Program, lat Latencies) (*Code, error) {
	if prog == nil || len(prog.Insts) == 0 {
		return nil, fmt.Errorf("corelet: empty program")
	}
	code := &Code{
		prog:     prog,
		ops:      make([]dinst, len(prog.Insts)),
		takenLat: int64(lat.TakenBranch),
	}
	for i, in := range prog.Insts {
		class := isa.Classify(in.Op)
		l := latencyFor(lat, class)
		if in.Op == isa.LDG || in.Op == isa.LDS {
			l = lat.GlobalHit
		}
		if l < 0 || l > math.MaxUint16 {
			return nil, fmt.Errorf("corelet: latency %d for %v out of range", l, in.Op)
		}
		code.ops[i] = dinst{
			op:      in.Op,
			class:   class,
			rd:      in.Rd & (isa.NumRegs - 1),
			rs1:     in.Rs1 & (isa.NumRegs - 1),
			rs2:     in.Rs2 & (isa.NumRegs - 1),
			visible: visible(in.Op),
			lat:     uint16(l),
			imm:     in.Imm,
		}
	}
	return code, nil
}

// visible reports whether op can touch state outside its corelet.
func visible(op isa.Op) bool {
	switch op {
	case isa.LDG, isa.LDS, isa.STG, isa.BAR, isa.HALT:
		return true
	}
	return false
}

// Program returns the source program the code was decoded from.
func (cd *Code) Program() *isa.Program { return cd.prog }

func latencyFor(l Latencies, class isa.Class) int {
	switch class {
	case isa.ClassMul:
		return l.Mul
	case isa.ClassDiv:
		return l.Div
	case isa.ClassFPU:
		return l.FPU
	case isa.ClassFDiv:
		return l.FDiv
	case isa.ClassLocalMem:
		return l.Local
	default:
		return l.ALU
	}
}

// maxContexts is the most hardware contexts a corelet may have (the width
// of the ready bitmap).
const maxContexts = 64

// Config sizes a Cluster.
type Config struct {
	// Corelets and Contexts give the cluster geometry (Table III: 32x4).
	Corelets, Contexts int
	// LocalBytes is each corelet's local SRAM size.
	LocalBytes int
	// Latencies configures issue latencies (must match the Code's decode).
	Latencies Latencies
}

// ctxHot is one context's scheduler-visible state: the program counter and
// the cycle at which the context may issue again, packed so a corelet's
// contexts (4 by default) share one cache line and the issue-scan read and
// the retire-time writes touch the same line.
type ctxHot struct {
	pc      int32
	_       uint32
	readyAt int64
}

// coreHot is one corelet's scheduler header: the runnable-context bitmap,
// the corelet-local cycle count (the multicore model ticks cores unevenly),
// the round-robin pointer, and the halted-context count, packed into half a
// cache line.
type coreHot struct {
	ready  uint64 // bitmap of runnable contexts (waiting/halted bits clear)
	cycle  int64
	rr     int32
	haltCt int32
	// earliest is a lower bound on the next cycle any runnable context can
	// issue, recorded when a scan comes up empty; until then the per-cycle
	// scan is skipped outright. Wakes reset it to zero (a woken context is
	// issueable immediately).
	earliest int64
}

// Cluster is a processor's full set of corelets in structure-of-arrays
// form, indexed by ctx = corelet*Contexts + context. One Tick sweeps every
// live corelet in registration order, which keeps shared-port access order
// — and therefore timing — identical to the per-corelet object model it
// replaces.
type Cluster struct {
	code *Code
	ops  []dinst // == code.ops, one indexed load off the cluster
	// Hot state, SoA: per-context and per-corelet headers plus the packed
	// register files.
	ctxs  []ctxHot
	cores []coreHot
	regs  []uint32 // register files, NumRegs words per context
	wakes []func() // prebuilt wake callbacks handed to the memory system
	// active is the bitmap of corelets with at least one non-halted context;
	// the sweep walks its set bits via TrailingZeros64, so fully finished
	// corelets cost nothing.
	active      []uint64
	haltedCores int
	// now counts Ticks. A corelet whose cycle has passed now is running
	// ahead (see run) and is passed over until the cluster catches up.
	now int64

	nctx       int
	ncore      int
	localWords int
	locals     []uint32 // corelet-local SRAMs, localWords each
	ports      []GlobalPort
	read       Reader
	ctxMask    uint64
	barrier    BarrierFunc
	tracers    []Tracer // nil until SetTracer; indexed by corelet

	// Execution counters (see Stats). classCounts is sized to 16 so the
	// (4-bit) class index needs no bounds check on the hot path.
	condBranches uint64
	takenCond    uint64
	idleCycles   uint64
	retryCycles  uint64
	classCounts  [16]uint64
}

// NewCluster builds the corelets of one processor over a shared predecoded
// code image. ports supplies each corelet's timing port (len must equal
// cfg.Corelets); read supplies functional data for global loads.
func NewCluster(cfg Config, code *Code, ports []GlobalPort, read Reader) (*Cluster, error) {
	switch {
	case code == nil || len(code.ops) == 0:
		return nil, fmt.Errorf("corelet: empty program")
	case cfg.Corelets <= 0:
		return nil, fmt.Errorf("corelet: bad corelet count %d", cfg.Corelets)
	case cfg.Contexts <= 0 || cfg.Contexts > maxContexts:
		return nil, fmt.Errorf("corelet: bad context count %d", cfg.Contexts)
	case cfg.LocalBytes <= 0 || cfg.LocalBytes%4 != 0:
		return nil, fmt.Errorf("corelet: bad local memory size %d", cfg.LocalBytes)
	case len(ports) != cfg.Corelets:
		return nil, fmt.Errorf("corelet: %d ports for %d corelets", len(ports), cfg.Corelets)
	case read == nil:
		return nil, fmt.Errorf("corelet: nil reader")
	}
	for _, p := range ports {
		if p == nil {
			return nil, fmt.Errorf("corelet: nil port")
		}
	}
	nc, nk := cfg.Corelets, cfg.Contexts
	// ctxs and regs carry maxContexts contexts of padding past the last
	// corelet, so run can view any corelet's contexts as a fixed-size array.
	cl := &Cluster{
		code:       code,
		ops:        code.ops,
		ctxs:       make([]ctxHot, nc*nk+maxContexts),
		cores:      make([]coreHot, nc),
		regs:       make([]uint32, (nc*nk+maxContexts)*isa.NumRegs),
		wakes:      make([]func(), nc*nk),
		active:     make([]uint64, (nc+63)/64),
		nctx:       nk,
		ncore:      nc,
		localWords: cfg.LocalBytes / 4,
		locals:     make([]uint32, nc*cfg.LocalBytes/4),
		ports:      append([]GlobalPort(nil), ports...),
		read:       read,
		ctxMask:    uint64(1)<<uint(nk) - 1,
	}
	for c := 0; c < nc; c++ {
		cl.cores[c].ready = cl.ctxMask
		cl.active[c/64] |= 1 << uint(c%64)
		for k := 0; k < nk; k++ {
			idx := c*nk + k
			bit := uint64(1) << uint(k)
			cc := c
			cl.wakes[idx] = func() {
				cl.cores[cc].ready |= bit
				cl.cores[cc].earliest = 0
				cl.ctxs[idx].readyAt = 0 // wakes in the memory domain; issue next tick
			}
		}
	}
	return cl, nil
}

// Corelets returns the cluster geometry.
func (cl *Cluster) Corelets() int { return cl.ncore }

// Contexts returns the context count per corelet.
func (cl *Cluster) Contexts() int { return cl.nctx }

// Code returns the shared predecoded program.
func (cl *Cluster) Code() *Code { return cl.code }

// SetBarrier installs the processor-wide barrier coordinator.
func (cl *Cluster) SetBarrier(f BarrierFunc) { cl.barrier = f }

// SetTracer installs an instruction-issue observer on one corelet.
func (cl *Cluster) SetTracer(corelet int, t Tracer) {
	if cl.tracers == nil {
		cl.tracers = make([]Tracer, cl.ncore)
	}
	cl.tracers[corelet] = t
}

// Halted reports whether every context of every corelet has executed HALT.
func (cl *Cluster) Halted() bool { return cl.haltedCores == cl.ncore }

// CoreHalted reports whether every context of corelet c has halted.
func (cl *Cluster) CoreHalted(c int) bool { return int(cl.cores[c].haltCt) == cl.nctx }

// WriteLocal stores a word into a corelet's local memory (host-side, at
// launch).
func (cl *Cluster) WriteLocal(c int, addr uint32, v uint32) {
	local := cl.local(c)
	local[localIndex(local, c, addr)] = v
}

// ReadLocal fetches a word of a corelet's local memory (host-side, for the
// final Reduce that drains the partially-reduced live state, Section IV-D).
func (cl *Cluster) ReadLocal(c int, addr uint32) uint32 {
	local := cl.local(c)
	return local[localIndex(local, c, addr)]
}

// local returns corelet c's local memory.
func (cl *Cluster) local(c int) []uint32 {
	return cl.locals[c*cl.localWords : (c+1)*cl.localWords]
}

// LocalWords returns the local memory size in words.
func (cl *Cluster) LocalWords() int { return cl.localWords }

// localIndex returns the word index of addr in corelet c's local memory.
// It is kept small enough to inline on the LW/SW hot path, where its range
// check also discharges the slice bounds check; the cold fault diagnostics
// live in localFault (panicking via a deferred-format value keeps the fast
// path under the inlining budget).
func localIndex(local []uint32, c int, addr uint32) int {
	i := int(addr >> 2)
	if addr&3 != 0 || i >= len(local) {
		panic(localFault{c: c, addr: addr, words: len(local)})
	}
	return i
}

// localFault is the panic value for an out-of-contract local access; the
// message is formatted lazily so localIndex stays inlinable.
type localFault struct {
	c     int
	addr  uint32
	words int
}

func (f localFault) String() string {
	if f.addr%4 != 0 {
		return fmt.Sprintf("corelet %d: unaligned local access %#x (pc trace in kernel)", f.c, f.addr)
	}
	return fmt.Sprintf("corelet %d: local access %#x beyond %d-word local memory", f.c, f.addr, f.words)
}

func (cl *Cluster) csr(c, ctx int, n int32) uint32 {
	switch n {
	case isa.CSRCoreletID:
		return uint32(c)
	case isa.CSRContextID:
		return uint32(ctx)
	case isa.CSRNumCorelet:
		return uint32(cl.ncore)
	case isa.CSRNumContext:
		return uint32(cl.nctx)
	case isa.CSRThreadID:
		return uint32(c*cl.nctx + ctx)
	case isa.CSRNumThreads:
		return uint32(cl.ncore * cl.nctx)
	}
	panic(fmt.Sprintf("corelet: unknown CSR %d", n))
}

// Stats aggregates the cluster's execution counters. The aggregates that are
// fully determined by per-class counts are derived here rather than
// maintained with separate increments on the interpret hot path: every
// issued instruction bumps exactly one ClassCounts bucket (retries bump
// none), so Instructions and BusyCycles are the bucket sum, and
// GlobalReads/LocalAccess are the global/local-memory buckets (STG is
// rejected, so the global bucket is pure loads).
func (cl *Cluster) Stats() Stats {
	s := Stats{
		CondBranches: cl.condBranches,
		TakenCond:    cl.takenCond,
		IdleCycles:   cl.idleCycles,
		RetryCycles:  cl.retryCycles,
	}
	copy(s.ClassCounts[:], cl.classCounts[:])
	for _, n := range s.ClassCounts {
		s.Instructions += n
	}
	s.BusyCycles = s.Instructions
	s.GlobalReads = s.ClassCounts[isa.ClassGlobalMem]
	s.LocalAccess = s.ClassCounts[isa.ClassLocalMem]
	return s
}

// maxWindow caps how many cycles one corelet runs ahead of the cluster in a
// single window. The windows are exact at any length; the cap only bounds
// the host work one Tick can do, so a kernel spinning in a private loop
// still returns to the engine (and its Run limit) every maxWindow cycles.
const maxWindow = 256

// Tick advances the cluster one compute cycle. Every live corelet whose
// cycle is due runs one window, in corelet order, so the visible
// instructions of the due cycle reach the ports and the barrier in exactly
// the order of a one-instruction-per-corelet sweep. Corelets already ahead
// of the tick (their due cycle was private and ran in an earlier window)
// are passed over; halted corelets are skipped via the active bitmap.
func (cl *Cluster) Tick() {
	cl.now++
	until := cl.now + maxWindow - 1
	for w, word := range cl.active {
		base := w * 64
		for word != 0 {
			c := base + bits.TrailingZeros64(word)
			word &= word - 1
			if cl.cores[c].cycle < cl.now {
				cl.run(c, until, false)
			}
		}
	}
}

// NeverTicks is the NextWorkTicks sentinel: every runnable context is
// blocked awaiting a memory wake, so only another domain's tick can create
// work.
const NeverTicks = int64(1<<63 - 1)

// NextWorkTicks returns the number of cluster ticks from now until the
// earliest tick at which any active corelet could issue: 1 means the very
// next tick (busy), NeverTicks means every context is parked on a wake.
// A corelet that has run ahead of the cluster reports busy. Otherwise the
// bound is exact given the scheduler headers: a corelet cannot issue before
// cores[c].earliest, and wakes (which reset earliest) only run from
// memory-domain work ticks, which end any skip window.
func (cl *Cluster) NextWorkTicks() int64 {
	w := NeverTicks
	for wi, word := range cl.active {
		base := wi * 64
		for word != 0 {
			c := base + bits.TrailingZeros64(word)
			word &= word - 1
			hd := &cl.cores[c]
			if hd.cycle > cl.now {
				return 1
			}
			if hd.ready == 0 {
				continue
			}
			e := hd.earliest - hd.cycle
			if e <= 1 {
				return 1
			}
			if e < w {
				w = e
			}
		}
	}
	return w
}

// SkipTicks replays n dead cluster ticks: the tick counter and every active
// corelet's cycle counter advance, and each elided corelet-tick counts as
// an idle cycle, exactly as run's dead paths would have tallied. Only
// called after NextWorkTicks reported n or more, so no corelet is ahead.
func (cl *Cluster) SkipTicks(n int64) {
	cl.now += n
	na := 0
	for wi, word := range cl.active {
		base := wi * 64
		for word != 0 {
			c := base + bits.TrailingZeros64(word)
			word &= word - 1
			cl.cores[c].cycle += n
			na++
		}
	}
	cl.idleCycles += uint64(n) * uint64(na)
}

// CoreNextIssueDelta returns, for one corelet, the distance in corelet
// cycles from its current cycle to the earliest cycle it could issue:
// NeverTicks when no context is runnable, otherwise earliest-cycle (which
// may be <= 0 when it could issue on its very next cycle). The multicore
// model, which ticks cores unevenly, derives its quiescence window from it.
func (cl *Cluster) CoreNextIssueDelta(c int) int64 {
	hd := &cl.cores[c]
	if hd.ready == 0 {
		return NeverTicks
	}
	return hd.earliest - hd.cycle
}

// SkipCoreTicks replays n dead cycles on a single corelet (the multicore
// model's per-core slots), advancing its cycle counter and idle tally.
func (cl *Cluster) SkipCoreTicks(c int, n int64) {
	cl.cores[c].cycle += n
	cl.idleCycles += uint64(n)
}

// TickCore advances a single corelet exactly n cycles, back to back, as a
// solo run (see run): the multicore model hands each core n issue slots per
// system cycle and nothing else acts between them. A mid-cycle halt still
// burns the remaining slots as idle, as the object-per-core model did.
func (cl *Cluster) TickCore(c, n int) { cl.run(c, cl.cores[c].cycle+int64(n), true) }

// parked reports whether a corelet with runnable-context bitmap ready and
// haltCt halted contexts has a context waiting on a wake (a pending global
// load or the barrier). While none does, nothing outside the corelet can
// change its state.
func (cl *Cluster) parked(ready uint64, haltCt int32) bool {
	return bits.OnesCount64(ready)+int(haltCt) != cl.nctx
}

// scan finds the context of a corelet that issues at cycle cyc: the first
// runnable context in round-robin order from start whose issue latency has
// elapsed. The circular scan runs as two bitmap segments, [start..n-1] then
// [0..start-1], each probe popping the lowest set bit so only runnable
// contexts are touched. When none can issue it returns -1 and the earliest
// cycle one can.
func scan(ctxs []ctxHot, m uint64, start int, cyc int64) (int, int64) {
	low := int64(math.MaxInt64)
	for seg := m >> uint(start) << uint(start); seg != 0; seg &= seg - 1 {
		k := bits.TrailingZeros64(seg)
		if r := ctxs[k].readyAt; r <= cyc {
			return k, 0
		} else if r < low {
			low = r
		}
	}
	for seg := m & (1<<uint(start) - 1); seg != 0; seg &= seg - 1 {
		k := bits.TrailingZeros64(seg)
		if r := ctxs[k].readyAt; r <= cyc {
			return k, 0
		} else if r < low {
			low = r
		}
	}
	return -1, low
}

// advanceStream steps the hardware stream walker (isa.LDS semantics).
func advanceStream(regs *[isa.NumRegs]uint32) {
	regs[isa.StreamAddr] += regs[isa.StreamStride]
	regs[isa.StreamCount]--
	if regs[isa.StreamCount] == 0 {
		regs[isa.StreamAddr] += regs[isa.StreamFix]
		regs[isa.StreamCount] = regs[isa.StreamChunk]
	}
}

// run is the interpreter: it advances corelet c from its next cycle (its
// due cycle) through at most cycle until, one window. Each cycle issues at
// most one instruction, from the next ready context in round-robin order.
//
// The due cycle is simulated unconditionally and may issue anything. Later
// cycles run only while they are invisible to the rest of the machine, so
// running them early is exact:
//   - no context is parked, so no wake or barrier release can reach the
//     corelet before its cycle comes round (ports wake only the context
//     they answered Pending, and the barrier only contexts that arrived);
//   - the instruction about to issue is corelet-private (dinst.visible is
//     clear): it reads and writes only registers, local memory and the
//     cluster's commutative counters, never a port, the barrier or the
//     halt state the engine polls;
//   - the corelet has no tracer, whose events must interleave with the
//     fabric's in global order.
//
// Cycles in which every runnable context is still covering issue latency
// are private too; they are tallied as idle in one step. The window stops
// before the first visible instruction, which then issues as the due cycle
// of a later window at its exact tick.
//
// A solo run drops those rules: the caller guarantees nothing else in the
// machine acts before cycle until completes (TickCore's back-to-back issue
// slots), so every cycle through until is its due cycle in turn.
//
// The datapath, branch conditions and special cases all live in one switch
// over the predecoded opcode.
func (cl *Cluster) run(c int, until int64, solo bool) {
	hd := &cl.cores[c]
	last := hd.cycle // the last simulated cycle
	start := last + 1
	m := hd.ready
	if !solo && until > start && (cl.parked(m, hd.haltCt) || cl.tracers != nil && cl.tracers[c] != nil) {
		until = start
	}
	if m == 0 || hd.earliest > start {
		// Every context is parked or halted, or every runnable one is still
		// covering issue latency and nothing can wake it early: idle
		// through cycle earliest-1.
		last = until
		if m != 0 {
			last = min(hd.earliest-1, until)
		}
		cl.idleCycles += uint64(last - start + 1)
		if last == until {
			hd.cycle = last
			return
		}
	}
	nk, full, rr := cl.nctx, cl.ctxMask, int(hd.rr)
	ops, takenLat := cl.ops, cl.code.takenLat
	// The per-corelet views are fixed-size arrays over padded storage, so
	// masked context and register indices need no bounds checks.
	ctxs := (*[maxContexts]ctxHot)(cl.ctxs[c*nk:])
	rf := (*[maxContexts * isa.NumRegs]uint32)(cl.regs[c*nk*isa.NumRegs:])
	local := cl.local(c)
window:
	for last < until {
		cyc := last + 1
		k := rr + 1
		if k == nk {
			k = 0
		}
		if m != full || ctxs[k&(maxContexts-1)].readyAt > cyc {
			// Off the streaming steady state (all contexts runnable and the
			// round-robin successor ready): scan.
			if m == 0 {
				// Every context is parked or halted: a window retired the
				// corelet's last HALT; a solo run idles out its cycles.
				if solo {
					cl.idleCycles += uint64(until - cyc + 1)
					last = until
				}
				break
			}
			var low int64
			if k, low = scan(ctxs[:nk], m, k, cyc); k < 0 {
				// Idle until the earliest context is ready, as above.
				hd.earliest = low
				l := min(low-1, until)
				cl.idleCycles += uint64(l - cyc + 1)
				last = l
				continue
			}
		}
		k &= maxContexts - 1
		ct := &ctxs[k]
		pc := ct.pc
		in := &ops[pc]
		if in.visible && cyc != start && !solo {
			break // issues at its own tick, as the due cycle of a later window
		}
		last, rr = cyc, k
		if cl.tracers != nil {
			if t := cl.tracers[c]; t != nil {
				t(cyc, k, int(pc), cl.code.prog.Insts[pc])
			}
		}
		// Register indices are masked to the register-file size (already
		// guaranteed by Decode), which lets the compiler elide bounds checks.
		ri := k * isa.NumRegs
		a := rf[ri|int(in.rs1&31)]
		b := rf[ri|int(in.rs2&31)]
		var v uint32

		switch in.op {
		case isa.NOP:
			v = 0
		case isa.HALT:
			cl.classCounts[in.class&15]++
			m &^= 1 << uint(k)
			hd.haltCt++
			if int(hd.haltCt) == nk {
				cl.active[c/64] &^= 1 << uint(c%64)
				cl.haltedCores++
			}
			continue
		case isa.ADD:
			v = a + b
		case isa.SUB:
			v = a - b
		case isa.MUL:
			v = uint32(int32(a) * int32(b))
		case isa.DIV:
			ia, ib := int32(a), int32(b)
			switch {
			case ib == 0:
				v = ^uint32(0) // RISC-V semantics: -1 on divide by zero
			case ia == math.MinInt32 && ib == -1:
				v = a // overflow: result = dividend
			default:
				v = uint32(ia / ib)
			}
		case isa.REM:
			ia, ib := int32(a), int32(b)
			switch {
			case ib == 0:
				v = a
			case ia == math.MinInt32 && ib == -1:
				v = 0
			default:
				v = uint32(ia % ib)
			}
		case isa.AND:
			v = a & b
		case isa.OR:
			v = a | b
		case isa.XOR:
			v = a ^ b
		case isa.SLL:
			v = a << (b & 31)
		case isa.SRL:
			v = a >> (b & 31)
		case isa.SRA:
			v = uint32(int32(a) >> (b & 31))
		case isa.SLT:
			if int32(a) < int32(b) {
				v = 1
			}
		case isa.SLTU:
			if a < b {
				v = 1
			}
		case isa.MIN:
			v = b
			if int32(a) < int32(b) {
				v = a
			}
		case isa.MAX:
			v = b
			if int32(a) > int32(b) {
				v = a
			}
		case isa.ADDI:
			v = uint32(int32(a) + in.imm)
		case isa.ANDI:
			v = a & uint32(in.imm)
		case isa.ORI:
			v = a | uint32(in.imm)
		case isa.XORI:
			v = a ^ uint32(in.imm)
		case isa.SLLI:
			v = a << (uint32(in.imm) & 31)
		case isa.SRLI:
			v = a >> (uint32(in.imm) & 31)
		case isa.SRAI:
			v = uint32(int32(a) >> (uint32(in.imm) & 31))
		case isa.SLTI:
			if int32(a) < in.imm {
				v = 1
			}
		case isa.LUI:
			v = uint32(in.imm) << 12
		case isa.FADD:
			v = isa.Bits(isa.F32(a) + isa.F32(b))
		case isa.FSUB:
			v = isa.Bits(isa.F32(a) - isa.F32(b))
		case isa.FMUL:
			v = isa.Bits(isa.F32(a) * isa.F32(b))
		case isa.FDIV:
			v = isa.Bits(isa.F32(a) / isa.F32(b))
		case isa.FSQRT:
			v = isa.Bits(float32(math.Sqrt(float64(isa.F32(a)))))
		case isa.FMIN:
			v = isa.Bits(float32(math.Min(float64(isa.F32(a)), float64(isa.F32(b)))))
		case isa.FMAX:
			v = isa.Bits(float32(math.Max(float64(isa.F32(a)), float64(isa.F32(b)))))
		case isa.FLT:
			if isa.F32(a) < isa.F32(b) {
				v = 1
			}
		case isa.FLE:
			if isa.F32(a) <= isa.F32(b) {
				v = 1
			}
		case isa.FEQ:
			if isa.F32(a) == isa.F32(b) {
				v = 1
			}
		case isa.CVTIF:
			v = isa.Bits(float32(int32(a)))
		case isa.CVTFI:
			v = uint32(int32(isa.F32(a)))
		case isa.LW:
			v = local[localIndex(local, c, uint32(int32(a)+in.imm))]
		case isa.SW:
			local[localIndex(local, c, uint32(int32(a)+in.imm))] = b
			cl.classCounts[in.class&15]++
			ct.pc = pc + 1
			ct.readyAt = cyc + int64(in.lat)
			continue
		case isa.LDG, isa.LDS:
			// A global load's timing is resolved before the instruction
			// retires: on Retry the context stays put and re-issues the same
			// instruction on a later cycle; on Pending it sleeps until the
			// memory system's callback, which ends the window.
			regs := (*[isa.NumRegs]uint32)(rf[ri : ri+isa.NumRegs])
			addr := uint32(int32(a) + in.imm)
			if in.op == isa.LDS {
				addr = regs[isa.StreamAddr]
			}
			stl := cl.ports[c].Read(k, addr, cl.wakes[c*nk+k])
			if stl == Retry {
				cl.retryCycles++
				continue // PC unchanged
			}
			if in.rd != 0 {
				regs[in.rd&31] = cl.read(addr)
			}
			if in.op == isa.LDS {
				advanceStream(regs)
			}
			cl.classCounts[in.class&15]++
			ct.pc = pc + 1
			if stl == Pending {
				m &^= 1 << uint(k)
				if !solo {
					break window
				}
				continue
			}
			ct.readyAt = cyc + int64(in.lat)
			continue
		case isa.STG:
			// The PNM execution model keeps live state in local memory
			// (Section III-B); a global store in a kernel is a porting bug,
			// surfaced loudly rather than silently mis-timed.
			panic("corelet: STG not supported by the PNM kernels (live state must stay in local memory)")
		case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
			cl.condBranches++
			var taken bool
			switch in.op {
			case isa.BEQ:
				taken = a == b
			case isa.BNE:
				taken = a != b
			case isa.BLT:
				taken = int32(a) < int32(b)
			case isa.BGE:
				taken = int32(a) >= int32(b)
			case isa.BLTU:
				taken = a < b
			default: // BGEU
				taken = a >= b
			}
			cl.classCounts[in.class&15]++
			if taken {
				cl.takenCond++
				ct.pc = in.imm
				ct.readyAt = cyc + takenLat
				continue
			}
			ct.pc = pc + 1
			ct.readyAt = cyc + int64(in.lat)
			continue
		case isa.J:
			cl.classCounts[in.class&15]++
			ct.pc = in.imm
			ct.readyAt = cyc + takenLat
			continue
		case isa.JAL:
			cl.classCounts[in.class&15]++
			if in.rd != 0 {
				rf[ri|int(in.rd&31)] = uint32(pc + 1)
			}
			ct.pc = in.imm
			ct.readyAt = cyc + takenLat
			continue
		case isa.JR:
			cl.classCounts[in.class&15]++
			ct.pc = int32(a)
			ct.readyAt = cyc + takenLat
			continue
		case isa.CSRR:
			v = cl.csr(c, k, in.imm)
		case isa.BAR:
			cl.classCounts[in.class&15]++
			ct.pc = pc + 1
			if cl.barrier == nil {
				// No coordinator installed: BAR is a no-op that writes no
				// register.
				ct.readyAt = cyc + int64(in.lat)
				continue
			}
			// The coordinator may release synchronously, waking contexts
			// of this corelet: hand it the header and read it back.
			hd.ready = m &^ (1 << uint(k))
			cl.barrier(cl.wakes[c*nk+k])
			m = hd.ready
			if !solo && cl.parked(m, hd.haltCt) {
				break window
			}
			continue
		default:
			panic(fmt.Sprintf("corelet: unhandled op %v at pc %d", in.op, pc))
		}
		// Unconditional writeback: rd==0 means "discard", which the tail models
		// by letting the store land in r0 and re-zeroing it — two cheap stores
		// instead of a data-dependent branch on the hot path.
		rf[ri|int(in.rd&31)] = v
		rf[ri] = 0
		cl.classCounts[in.class&15]++
		ct.pc = pc + 1
		ct.readyAt = cyc + int64(in.lat)
	}
	hd.cycle, hd.ready, hd.rr = last, m, int32(rr)
}
