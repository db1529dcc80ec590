package main

import (
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/stack"
	"repro/internal/workloads"
)

// workloadTable is the benchmark's workload table. README.md records why
// each workload exists and the measured CPU shares behind each choice.
var workloadTable = map[string]workloadDef{
	"fig3-mimd": {
		setup: simWorkload(figure3("ssmc", "millipede-no-flow-control", "millipede", "millipede-rate-match"),
			workloads.All, 0.125),
		fixedOps: true,
	},
	"fig3-simt": {
		setup: simWorkload(figure3("gpgpu", "vws", "vws-row"),
			workloads.All, 0.375),
		fixedOps: true,
	},
	"memhier": {
		setup: simWorkload([]variant{stackVariant(stack.ModeHWCache), stackVariant(stack.ModeMemCache)},
			memhierKernels, 1.0),
		fixedOps: true,
	},
	"serve": {
		setup: serveWorkload,
	},
}

// tinyScale is the input scale of every simulation in a -tiny pass.
const tinyScale = 0.01

// variant is one column of a simulation workload: an architecture and the
// parameters it runs with for a given kernel and record count.
type variant struct {
	name   string
	arch   string
	params func(b *workloads.Benchmark, records int) arch.Params
}

// figure3 returns the Table III configuration of each named architecture.
func figure3(archs ...string) []variant {
	out := make([]variant, len(archs))
	for i, a := range archs {
		out[i] = variant{name: a, arch: a, params: func(*workloads.Benchmark, int) arch.Params { return arch.Default() }}
	}
	return out
}

// stackVariant is millipede on 4 channels with a die stack a quarter of the
// dataset, sized the way the capacity study sizes it (row-rounded dataset,
// whole hwcache sets).
func stackVariant(mode stack.Mode) variant {
	return variant{name: string(mode), arch: harness.ArchMillipede,
		params: func(b *workloads.Benchmark, records int) arch.Params {
			p := arch.Default()
			p.Channels = 4
			dataset := p.Threads() * b.StreamWords(records) * 4
			granule := stack.DefaultAssoc * p.DRAM.RowBytes
			p.StackMode = string(mode)
			p.StackBytes = (dataset/4 + granule - 1) / granule * granule
			return p
		}}
}

func memhierKernels() []*workloads.Benchmark {
	var out []*workloads.Benchmark
	for _, name := range []string{"count", "sample", "variance", "nbayes"} {
		b, err := workloads.ByName(name)
		if err != nil {
			panic(err) // the kernel table is static
		}
		out = append(out, b)
	}
	return out
}

// simCase is one simulation of a pass.
type simCase struct {
	label   string
	arch    string
	bench   *workloads.Benchmark
	params  arch.Params
	records int
	// cold marks the first simulation of a kernel in the pass: it computes
	// the golden reference that later variants of the kernel reuse.
	cold bool
}

// simWorkload runs every kernel under every variant, one simulation at a
// time and with no harness worker pool, so host timings are not mixed with
// scheduler contention between simulations. For kernel k the variant order
// is rotated by k, so the cold (golden-computing) simulation is spread
// evenly over the variants.
func simWorkload(vs []variant, kernels func() []*workloads.Benchmark, scale float64) func(passSpec) (pass, error) {
	return func(spec passSpec) (pass, error) {
		s := scale
		if spec.Tiny {
			s = tinyScale
		}
		var cases []simCase
		for k, b := range kernels() {
			records := harness.RecordsFor(b, s)
			for j := range vs {
				v := vs[(k+j)%len(vs)]
				cases = append(cases, simCase{
					label: v.name + "/" + b.Name(), arch: v.arch, bench: b,
					params: v.params(b, records), records: records, cold: j == 0,
				})
			}
		}
		dataSeed := mix(spec.Seed, "dataset", 0)
		warmSeed := mix(spec.Seed, "warm-up", 0)
		if warmSeed == dataSeed {
			return pass{}, fmt.Errorf("warm-up seed collides with the dataset seed")
		}
		c := cases[0]
		if _, _, err := harness.RunWith(c.arch, c.bench, c.params, c.records, harness.Options{Seed: warmSeed}); err != nil {
			return pass{}, fmt.Errorf("warm-up %s: %w", c.label, err)
		}
		return pass{timed: func(rec *passRecord, tr *tracer) error {
			for _, c := range cases {
				rec.Attempted++
				sp := tr.start("sim", 0)
				t0 := time.Now()
				res, _, err := harness.RunWith(c.arch, c.bench, c.params, c.records, harness.Options{Seed: dataSeed})
				ms := msSince(t0)
				sp.end()
				if err != nil {
					rec.fail("%s: %v", c.label, err)
					continue
				}
				rec.Sims++
				if c.cold {
					rec.ColdMS = append(rec.ColdMS, ms)
				} else {
					rec.WarmMS = append(rec.WarmMS, ms)
				}
				addRunCounters(rec.Counters, res.Metrics, res.SkippedEdges, c.params.ChannelHz)
			}
			return nil
		}}, nil
	}
}

// addRunCounters adds one verified simulation's exact counters: every
// counter sample of its metrics snapshot, plus the engine's clock edges
// (compute cycles plus channel cycles over the simulated time) and the
// edges quiescence skipping elided.
func addRunCounters(into map[string]float64, snap metrics.Snapshot, skipped uint64, channelHz float64) {
	for _, s := range snap.Samples {
		if s.Kind == metrics.Counter {
			into[s.Name] += s.Value
		}
	}
	channelEdges := float64(uint64(snap.Value("run.time_ps") * channelHz / 1e12))
	into["engine.edges"] += snap.Value("run.cycles") + channelEdges
	into["engine.skipped_edges"] += float64(skipped)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
