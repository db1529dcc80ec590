// Command perfbench is the repository's benchmark. It drives the simulator
// and the millid serving tier from outside, through their public entry
// points (harness.RunWith for simulations; the server, router and rescache
// HTTP handlers wired in-process for serving), and prints every metric by
// name and unit. See README.md for the workloads, the layer map and the
// noise rules the design follows.
//
// Usage (from the repository root, through perfbench/run.sh, which builds
// this package first):
//
//	perfbench -workload fig3-mimd -seed 1 -seconds 20 -trace 0
//
// The parent process runs passes of the workload, each in a fresh child
// process, until -seconds have elapsed, and reports medians over passes.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With -trace 1 the metrics are
// the per-layer table instead of the end-to-end set. The exit status is
// nonzero when any operation failed or any output was incorrect.
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// childEnv marks a process as a pass child; its value is the JSON-encoded
// passSpec.
const childEnv = "PERFBENCH_PASS"

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec, os.Stdout))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout, os.Stderr))
}

// passSpec tells a child process which pass to run.
type passSpec struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Tiny     bool   `json:"tiny"`
	// Trace, when set, makes the pass a traced one: the child writes a CPU
	// profile of the timed pass to Trace+".pprof" and its span log to
	// Trace+".spans.json".
	Trace string `json:"trace,omitempty"`
	// Corrupt replaces one served body before it is compared, so the
	// self-test can prove the correctness gate fires.
	Corrupt bool `json:"corrupt,omitempty"`
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool
	workdir  string
	corrupt  bool
}

func parentMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	var traceN int
	fs.StringVar(&c.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&c.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&c.seconds, "seconds", 20, "how long one run measures (passes start until this much time has elapsed)")
	fs.IntVar(&traceN, "trace", 0, "1 = traced run: report the per-layer metrics instead of the end-to-end ones")
	fs.BoolVar(&c.tiny, "tiny", false, "run every pass at a tiny size (self-test)")
	fs.StringVar(&c.workdir, "workdir", filepath.Join(".bench_build", "perfbench"), "directory for profiles and span logs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloadTable[c.workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", c.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if traceN != 0 && traceN != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1\n")
		return 2
	}
	c.trace = traceN == 1
	if c.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive\n")
		return 2
	}
	rep, err := run(c, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct || rep.Failed > 0 {
		return 1
	}
	return 0
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes passes of one workload until c.seconds have elapsed (at
// least two, so the exact counters can be compared between passes) and
// aggregates them into the report. A traced run alternates untraced and
// traced passes so the tracing overhead is measured on the same host state.
func run(c config, stdout io.Writer) (report, error) {
	fp := fingerprint(c.seed, c.workload)
	fpLine, _ := json.Marshal(map[string]any{"host": fp}) // strings and ints only: cannot fail
	fmt.Fprintf(stdout, "%s\n", fpLine)
	if prev := swapHost(c.workdir, fp); prev != "" && prev != fp.ID {
		fmt.Fprintf(stdout, "HOST CHANGED: the previous run in this directory ran on host %s, this one on %s; do not compare their reports\n", prev, fp.ID)
	}

	dir := filepath.Join(c.workdir, fmt.Sprintf("%s-seed%d", c.workload, c.seed))
	if c.trace {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return report{}, err
		}
	}
	var plain, traced []passRecord
	var profiles []string
	start := time.Now()
	// A pass that hangs is killed, so the run ends with an error instead of
	// outliving the time it was given.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(c.seconds*float64(time.Second))+passTimeout)
	defer cancel()
	for i := 0; i < 2 || time.Since(start).Seconds() < c.seconds; i++ {
		spec := passSpec{Workload: c.workload, Seed: c.seed, Tiny: c.tiny, Corrupt: c.corrupt}
		isTraced := c.trace && i%2 == 1
		if isTraced {
			spec.Trace = filepath.Join(dir, fmt.Sprintf("pass%d", i))
		}
		rec, err := spawnPass(ctx, spec)
		if err != nil {
			return report{}, fmt.Errorf("pass %d: %w", i, err)
		}
		if isTraced {
			traced = append(traced, rec)
			profiles = append(profiles, spec.Trace+".pprof")
		} else {
			plain = append(plain, rec)
		}
	}
	all := append(append([]passRecord(nil), plain...), traced...)
	rep := report{Correct: true, Metrics: map[string]metric{}}
	for _, r := range all {
		rep.Attempted += r.Attempted
		rep.Failed += r.Failed
		for _, f := range r.Failures {
			fmt.Fprintf(stdout, "FAIL: %s\n", f)
			rep.Correct = false
		}
	}
	if diffs := counterMismatches(all); len(diffs) > 0 {
		for _, d := range diffs {
			fmt.Fprintf(stdout, "FAIL: exact counter differs between passes: %s\n", d)
		}
		rep.Correct = false
		rep.Failed += len(diffs)
	}
	printPasses(stdout, c.workload, all)
	if !c.trace {
		for name, v := range endToEnd(plain, workloadTable[c.workload].fixedOps) {
			rep.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
		}
		return rep, nil
	}
	prof, err := readProfiles(profiles)
	if err != nil {
		return report{}, err
	}
	printLayerTable(stdout, c.workload, prof)
	for name, v := range perLayer(plain, traced, prof, workloadTable[c.workload].fixedOps) {
		rep.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
	}
	return rep, nil
}

// passTimeout is how long a run may overrun its seconds before its
// running pass is killed.
const passTimeout = 90 * time.Second

// spawnPass runs one pass in a fresh child process: every measured pass
// starts from the same process state (empty golden memo, empty caches,
// fresh heap), and VmHWM is the pass's own peak. It returns only after the
// child has exited.
func spawnPass(ctx context.Context, spec passSpec) (passRecord, error) {
	self, err := os.Executable()
	if err != nil {
		return passRecord{}, err
	}
	js, err := json.Marshal(spec)
	if err != nil {
		return passRecord{}, err
	}
	cmd := exec.CommandContext(ctx, self)
	cmd.Env = append(os.Environ(), childEnv+"="+string(js))
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return passRecord{}, fmt.Errorf("child: %v: %s", err, strings.TrimSpace(errb.String()))
	}
	var rec passRecord
	if err := json.Unmarshal(lastLine(out.Bytes()), &rec); err != nil {
		return passRecord{}, fmt.Errorf("child output: %v", err)
	}
	return rec, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// counterMismatches compares every pass's exact counters against the first
// pass's: simulated results are deterministic, so any difference is a
// correctness failure, not noise.
func counterMismatches(passes []passRecord) []string {
	if len(passes) == 0 {
		return nil
	}
	ref := passes[0].Counters
	var out []string
	for i, p := range passes[1:] {
		names := map[string]bool{}
		for k := range ref {
			names[k] = true
		}
		for k := range p.Counters {
			names[k] = true
		}
		for _, k := range sortedKeys(names) {
			a, aok := ref[k]
			b, bok := p.Counters[k]
			if a != b || aok != bok {
				out = append(out, fmt.Sprintf("pass %d %s = %v, pass 0 = %v", i+1, k, b, a))
			}
		}
	}
	return out
}

// hostInfo identifies the machine a report was measured on. Reports whose
// host ids differ are not comparable.
type hostInfo struct {
	ID         string `json:"id"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
}

func fingerprint(seed uint64, workload string) hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Workload:   workload,
		Seed:       seed,
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%d|%s|%d|%s", h.NProc, h.CPUModel, h.GOMAXPROCS, h.GoVersion)))
	h.ID = fmt.Sprintf("%x", sum[:6])
	return h
}

// swapHost records this run's host id in dir and returns the id the
// previous run recorded there ("" if none).
func swapHost(dir string, h hostInfo) string {
	path := filepath.Join(dir, "host-id")
	prev, _ := os.ReadFile(path) // a first run has none
	if err := os.MkdirAll(dir, 0o755); err == nil {
		os.WriteFile(path, []byte(h.ID), 0o644) // best effort: the check is advisory
	}
	return strings.TrimSpace(string(prev))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printPasses writes one human-readable line per pass.
func printPasses(w io.Writer, workload string, passes []passRecord) {
	fmt.Fprintf(w, "%s: %d passes\n", workload, len(passes))
	fmt.Fprintf(w, "  %-6s %9s %9s %8s %8s %6s %6s\n", "traced", "setup_s", "wall_s", "heap_mb", "rss_mb", "ops", "failed")
	for _, p := range passes {
		fmt.Fprintf(w, "  %-6v %9.4f %9.4f %8.2f %8.2f %6d %6d\n",
			p.Traced, p.SetupS, p.WallS, p.HeapMB, p.RSSPeakMB, p.Attempted, p.Failed)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
