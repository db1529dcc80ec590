package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// parent re-executes itself for every pass.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec, os.Stdout))
	}
	os.Exit(m.Run())
}

type metricSpec struct{ Name, Unit string }

type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricSpec            `json:"end_to_end"`
	PerLayer  []metricSpec            `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// runCLI runs the command at a tiny size and decodes its last line.
func runCLI(t *testing.T, workload, trace string) (map[string]json.RawMessage, report) {
	t.Helper()
	var out, errb bytes.Buffer
	code := parentMain([]string{"-workload", workload, "-seed", "7", "-seconds", "0.01",
		"-trace", trace, "-tiny", "-workdir", t.TempDir()}, &out, &errb)
	if code != 0 {
		t.Fatalf("%s trace=%s: exit %d\nstdout:\n%s\nstderr:\n%s", workload, trace, code, out.String(), errb.String())
	}
	last := lastLine(out.Bytes())
	var keys map[string]json.RawMessage
	var rep report
	if err := json.Unmarshal(last, &keys); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	if err := json.Unmarshal(last, &rep); err != nil {
		t.Fatal(err)
	}
	return keys, rep
}

// TestEveryWorkloadEmitsEveryMetric runs every workload of BENCHMARK.json
// untraced and traced, and checks the result line: exactly the four keys,
// operations attempted and none failed, and every metric the file names,
// with its unit.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) == 0 || len(bf.EndToEnd) == 0 || len(bf.PerLayer) == 0 {
		t.Fatalf("BENCHMARK.json lists no workloads or metrics: %+v", bf)
	}
	for _, w := range bf.Workloads {
		for trace, want := range map[string][]metricSpec{"0": bf.EndToEnd, "1": bf.PerLayer} {
			keys, rep := runCLI(t, w.Name, trace)
			if got := strings.Join(sortedKeys(keys), ","); got != "attempted,correct,failed,metrics" {
				t.Errorf("%s trace=%s: result keys %s", w.Name, trace, got)
			}
			if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w.Name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%s: metric %s missing", w.Name, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s unit %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(rep.Metrics), len(want))
			}
		}
	}
}

// TestCorruptedBodyFails proves the serve correctness gate: one warm body
// altered before the comparison must fail the run.
func TestCorruptedBodyFails(t *testing.T) {
	rep, err := run(config{workload: "serve", seed: 7, seconds: 0.01, tiny: true, corrupt: true, workdir: t.TempDir()}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed == 0 {
		t.Fatalf("corrupted body passed the gate: correct=%v failed=%d", rep.Correct, rep.Failed)
	}
}

// TestCounterMismatchFails proves the exact-counter gate.
func TestCounterMismatchFails(t *testing.T) {
	a := passRecord{Counters: map[string]float64{"run.cycles": 10, "mem.issued": 3}}
	b := passRecord{Counters: map[string]float64{"run.cycles": 10, "mem.issued": 4}}
	if d := counterMismatches([]passRecord{a, a}); len(d) != 0 {
		t.Fatalf("identical passes differ: %v", d)
	}
	if d := counterMismatches([]passRecord{a, b}); len(d) != 1 {
		t.Fatalf("want one mismatch, got %v", d)
	}
}
