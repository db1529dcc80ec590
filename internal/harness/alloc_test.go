package harness

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/arch"
	"repro/internal/workloads"
)

// TestCycleLoopAllocFree is the zero-allocation gate for the cycle engine:
// after one warm-up run (which populates the freelists and grows every
// pre-sized buffer to its steady-state footprint), a second run of the same
// experiment must make zero heap allocations inside the cycle loop, for
// every kernel on every cluster/SIMT architecture. The counter comes from
// process-wide runtime.MemStats deltas around arch.Node.Run (see
// Node.RunAllocs), so runtime background work must be kept out of the
// ledger: the test pins GOMAXPROCS to 1 (as testing.AllocsPerRun does; the
// cycle loop runs on one goroutine), finishes any GC cycle in flight, and
// pauses GC during the measured run.
//
// A failure here means a hot-path allocation crept back in; find it with
//
//	go test ./internal/harness -run TestCycleLoopAllocFree \
//	    -memprofile mem.out -memprofilerate=1
//	go tool pprof -list <func> harness.test mem.out
func TestCycleLoopAllocFree(t *testing.T) {
	archs := []string{
		ArchMillipede, ArchMillipedeNoFC, ArchMillipedeRM,
		ArchSSMC, ArchGPGPU, ArchVWS, ArchVWSRow, ArchMulticore,
	}
	p := arch.Default()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, a := range archs {
		for _, b := range workloads.All() {
			if _, err := Run(a, b, p, 128); err != nil {
				t.Fatalf("%s/%s warm-up: %v", a, b.Name(), err)
			}
			gc := debug.SetGCPercent(-1)
			runtime.GC()
			r, err := Run(a, b, p, 128)
			debug.SetGCPercent(gc)
			if err != nil {
				t.Fatalf("%s/%s: %v", a, b.Name(), err)
			}
			if r.CycleAllocs != 0 {
				t.Errorf("%s/%s: %d heap allocations (%d bytes) in the cycle loop, want 0",
					a, b.Name(), r.CycleAllocs, r.CycleBytes)
			}
		}
	}
}
