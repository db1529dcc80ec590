package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// passRecord is what one child process reports about its pass.
type passRecord struct {
	Traced bool `json:"traced"`
	// SetupS is process start to the first timed operation: building the
	// kernels and registry (and, on serve, the cluster) plus one discarded
	// warm-up operation on a seed the timed pass never uses.
	SetupS float64 `json:"setup_s"`
	WallS  float64 `json:"wall_s"`
	// ColdMS and WarmMS are per-operation latencies. On serve, cold jobs
	// simulate and warm jobs are answered from the result cache. On the
	// simulation workloads, a cold simulation computes its golden
	// reference and a warm one finds it memoized by an earlier
	// architecture of the same kernel.
	ColdMS []float64 `json:"cold_ms"`
	WarmMS []float64 `json:"warm_ms"`
	// HeapMB is the live heap after a forced GC at the end of the pass,
	// HeapGrowthKB its growth over the heap after set-up, RSSPeakMB the
	// process's VmHWM and AllocMB the bytes allocated during the pass.
	HeapMB       float64 `json:"heap_mb"`
	HeapGrowthKB float64 `json:"heap_growth_kb"`
	RSSPeakMB    float64 `json:"rss_peak_mb"`
	AllocMB      float64 `json:"alloc_mb"`
	// Sims counts simulations in the timed pass; Distinct counts distinct
	// serve jobs.
	Sims      int      `json:"sims"`
	Distinct  int      `json:"distinct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Counters are exact, host-independent work counts summed over the
	// pass (simulated cycles, instructions, fabric requests, stack fills,
	// simulations run, cache hits). They must repeat bit-for-bit.
	Counters map[string]float64 `json:"counters"`
	// Spans maps a span name to its durations in ms (traced passes only).
	Spans map[string][]float64 `json:"spans,omitempty"`
}

func (r *passRecord) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// pass is one workload's set-up and timed pass. setup builds everything the
// timed pass needs and runs the discarded warm-up; timed runs the measured
// work into rec; teardown (may be nil) releases what setup built and runs
// after all measurements.
type pass struct {
	timed    func(rec *passRecord, tr *tracer) error
	teardown func()
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	setup func(spec passSpec) (pass, error)
	// fixedOps marks a pass that is a fixed list of different operations,
	// run in the same order every pass (see endToEnd).
	fixedOps bool
}

func workloadNames() []string { return sortedKeys(workloadTable) }

// childMain runs one pass and prints its record as JSON.
func childMain(specJSON string, stdout io.Writer) int {
	start := time.Now()
	var spec passSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench pass: bad spec: %v\n", err)
		return 1
	}
	rec, err := runPass(spec, start)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench pass: %v\n", err)
		return 1
	}
	out, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench pass: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// runPass sets up, measures and tears down one pass of spec's workload.
func runPass(spec passSpec, start time.Time) (passRecord, error) {
	w, ok := workloadTable[spec.Workload]
	if !ok {
		return passRecord{}, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	p, err := w.setup(spec)
	if err != nil {
		return passRecord{}, fmt.Errorf("setup: %w", err)
	}
	rec := passRecord{Traced: spec.Trace != "", Counters: map[string]float64{}}
	rec.SetupS = time.Since(start).Seconds()

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapBase, allocBase := ms.HeapAlloc, ms.TotalAlloc

	var tr *tracer
	var prof *os.File
	if rec.Traced {
		tr = newTracer()
		if prof, err = os.Create(spec.Trace + ".pprof"); err != nil {
			return rec, err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return rec, err
		}
	}
	t0 := time.Now()
	err = p.timed(&rec, tr)
	rec.WallS = time.Since(t0).Seconds()
	if prof != nil {
		pprof.StopCPUProfile()
		if cerr := prof.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return rec, err
	}

	runtime.GC()
	runtime.ReadMemStats(&ms)
	rec.HeapMB = float64(ms.HeapAlloc) / (1 << 20)
	rec.HeapGrowthKB = (float64(ms.HeapAlloc) - float64(heapBase)) / 1024
	rec.AllocMB = float64(ms.TotalAlloc-allocBase) / (1 << 20)
	rec.RSSPeakMB = vmHWM()
	if p.teardown != nil {
		p.teardown()
	}
	if tr != nil {
		rec.Spans = tr.durations()
		if err := tr.write(spec.Trace + ".spans.json"); err != nil {
			return rec, err
		}
	}
	return rec, nil
}

// vmHWM returns the process's peak resident set in MB (0 where /proc is
// unavailable).
func vmHWM() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// mix derives an independent 64-bit value from a seed and a stream label
// (splitmix64 finalizer); it never returns zero, which the harness would
// map to its canonical seed.
func mix(seed uint64, label string, i int) uint64 {
	x := seed ^ 0x9e3779b97f4a7c15*uint64(i+1)
	for _, c := range []byte(label) {
		x = (x ^ uint64(c)) * 0x100000001b3
	}
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}
