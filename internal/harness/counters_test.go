package harness

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

var updateCounters = flag.Bool("update-counters", false,
	"rewrite testdata/mimd_counters.golden from the current simulator")

// countersGolden is the full-counter golden file of TestMIMDCountersGolden.
const countersGolden = "testdata/mimd_counters.golden"

// TestMIMDCountersGolden is the full-counter determinism gate for the
// corelet-based (MIMD) architectures. The BENCH determinism fields cover
// only records, cycles, simulated time and instruction totals; this gate
// pins every exact counter and histogram of the metric snapshot (idle,
// retry and busy cycles, branch and class-mix tallies, prefetch, cache,
// DFS and memory-fabric counters) for every MIMD architecture on every
// kernel at a small scale. A change that claims to be timing-neutral must
// pass it unchanged. Regenerate the file only for a deliberate model change:
//
//	go test ./internal/harness -run TestMIMDCountersGolden -update-counters
func TestMIMDCountersGolden(t *testing.T) {
	archs := []string{ArchSSMC, ArchMillipede, ArchMillipedeNoFC, ArchMillipedeRM, ArchMulticore}
	p := arch.Default()
	var b strings.Builder
	for _, a := range archs {
		for _, bench := range workloads.All() {
			res, err := Run(a, bench, p, 32)
			if err != nil {
				t.Fatalf("%s/%s: %v", a, bench.Name(), err)
			}
			writeExactSamples(&b, a+"/"+bench.Name(), res.Metrics)
		}
	}
	got := b.String()
	path := filepath.FromSlash(countersGolden)
	if *updateCounters {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-counters)", err)
	}
	want := string(data)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	bad := 0
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n  got  %s\n  want %s", i+1, g, w)
			if bad++; bad == 20 {
				t.Fatal("too many differences")
			}
		}
	}
}

// writeExactSamples renders the counter and histogram samples of s, one per
// line, prefixed by the run key. Gauges (rates, energy estimates, clock
// frequencies) are derived floats and are left out.
func writeExactSamples(b *strings.Builder, key string, s metrics.Snapshot) {
	for _, sm := range s.Samples {
		switch sm.Kind {
		case metrics.Counter:
			fmt.Fprintf(b, "%s %s %s\n", key, sm.Name, strconv.FormatFloat(sm.Value, 'f', -1, 64))
		case metrics.Histogram:
			fmt.Fprintf(b, "%s %s %v\n", key, sm.Name, sm.Buckets)
		}
	}
}
