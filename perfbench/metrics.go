package main

import (
	"math"
	"sort"
)

type metricDef struct{ name, unit string }

// endToEndMetrics are what a user waits for. Every workload reports every
// one of them; README.md says what each means on each workload.
var endToEndMetrics = []metricDef{
	{"wall_s", "s"},
	{"sim_cycles_per_s", "cycles/s"},
	{"cold_p50_ms", "ms"},
	{"cold_p90_ms", "ms"},
	{"warm_p50_ms", "ms"},
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"rss_peak_mb", "MB"},
}

// perLayerMetrics come from the traced run: CPU shares from the CPU
// profile, work counts from the exact counters, phase times from spans.
var perLayerMetrics = []metricDef{
	// The warm tail is set by garbage collection and widens several-fold
	// when the host slows, so no bound holds it across runs (README.md).
	{"warm_p99_ms", "ms"},
	{"engine.cpu_frac", "fraction"},
	{"engine.ns_per_cycle", "ns"},
	{"engine.skipped_edge_frac", "fraction"},
	{"corelet.cpu_frac", "fraction"},
	{"corelet.ns_per_inst", "ns"},
	{"corelet.insts", "count"},
	{"simt.cpu_frac", "fraction"},
	{"simt.ns_per_warp_inst", "ns"},
	{"simt.warp_insts", "count"},
	{"simt.divergence_rate", "fraction"},
	{"memory.cpu_frac", "fraction"},
	{"mem.issued", "count"},
	{"mem.stall_cycles", "cycles"},
	{"mem.rejected", "count"},
	{"dram.row_miss_rate", "fraction"},
	{"prefetch.cpu_frac", "fraction"},
	{"stack.cpu_frac", "fraction"},
	{"prefetch.ready_hit_frac", "fraction"},
	{"cache.hit_rate", "fraction"},
	{"stack.hit_rate", "fraction"},
	{"stack.rejected_per_access", "1/access"},
	{"harness.cpu_frac", "fraction"},
	{"harness.build_ms", "ms"},
	{"harness.golden_ms", "ms"},
	{"harness.verify_ms", "ms"},
	{"serve.cpu_frac", "fraction"},
	{"serve.submit_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.result_ms", "ms"},
	{"store.hit_ms", "ms"},
	{"server.cache_hit_rate", "fraction"},
	{"server.jobs_rejected", "count"},
	{"serve.heap_kb_per_distinct_job", "KB"},
	{"runtime.cpu_frac", "fraction"},
	{"runtime.gc_frac", "fraction"},
	{"alloc_mb_per_pass", "MB"},
	{"trace.wall_s", "s"},
	{"trace.overhead_frac", "fraction"},
}

func unitOf(name string) string {
	for _, set := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, m := range set {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}

// endToEnd aggregates untraced passes: each figure is the median over
// passes of that pass's value, so one pass disturbed by the host moves no
// figure.
//
// Latency percentiles depend on what an operation is. A serve pass draws
// 100 cold and 2000 warm jobs of one size, so percentiles are taken within
// each pass (at least 10 samples lie beyond p90, 20 beyond p99) and the
// median is taken over passes. A simulation pass is a fixed list of different
// simulations, run in the same order every pass; there each simulation's
// latency is first its median over passes, and the percentile is taken
// over simulations, so it never jumps between two simulations of different
// sizes from one pass to the next.
func endToEnd(passes []passRecord, perOp bool) map[string]float64 {
	per := func(f func(p passRecord) float64) float64 {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, f(p))
		}
		return median(xs)
	}
	lat := func(ops func(p passRecord) []float64, q float64) float64 { return latency(passes, perOp, ops, q) }
	cold := func(p passRecord) []float64 { return p.ColdMS }
	warm := func(p passRecord) []float64 { return p.WarmMS }
	return map[string]float64{
		"wall_s":           per(func(p passRecord) float64 { return p.WallS }),
		"sim_cycles_per_s": per(func(p passRecord) float64 { return p.Counters["run.cycles"] / p.WallS }),
		"cold_p50_ms":      lat(cold, 0.50),
		"cold_p90_ms":      lat(cold, 0.90),
		"warm_p50_ms":      lat(warm, 0.50),
		"setup_s":          per(func(p passRecord) float64 { return p.SetupS }),
		"heap_mb":          per(func(p passRecord) float64 { return p.HeapMB }),
		"rss_peak_mb":      per(func(p passRecord) float64 { return p.RSSPeakMB }),
	}
}

// latency is the q-th percentile of the operations ops selects, taken as
// endToEnd describes.
func latency(passes []passRecord, perOp bool, ops func(p passRecord) []float64, q float64) float64 {
	if perOp {
		return percentile(opMedians(passes, ops), q)
	}
	var xs []float64
	for _, p := range passes {
		xs = append(xs, percentile(ops(p), q))
	}
	return median(xs)
}

// opMedians returns each operation's median latency over passes, matching
// operations by their position in the pass.
func opMedians(passes []passRecord, ops func(p passRecord) []float64) []float64 {
	var out []float64
	for i := 0; ; i++ {
		var xs []float64
		for _, p := range passes {
			if o := ops(p); i < len(o) {
				xs = append(xs, o[i])
			}
		}
		if len(xs) == 0 {
			return out
		}
		out = append(out, median(xs))
	}
}

// perLayer derives the per-layer metrics from the traced passes' profiles,
// spans and counters, with the untraced passes as the overhead baseline.
func perLayer(plain, traced []passRecord, prof profileSummary, perOp bool) map[string]float64 {
	// Counters repeat exactly between passes (checked), so the traced
	// passes' work is n times one pass's.
	c := map[string]float64{}
	n := float64(len(traced))
	sims := 0
	spans := map[string][]float64{}
	var twall []float64
	for _, p := range traced {
		for k, v := range p.Counters {
			c[k] += v
		}
		sims += p.Sims
		for k, v := range p.Spans {
			spans[k] = append(spans[k], v...)
		}
		twall = append(twall, p.WallS)
	}
	one := func(name string) float64 { return c[name] / n }
	perUnit := func(layer, counter string) float64 { return ratio(float64(prof.LayerNS[layer]), c[counter]) }
	perSim := func(phase string) float64 { return ratio(float64(prof.PhaseNS[phase])/1e6, float64(sims)) }
	var heapPerJob, alloc, pwall []float64
	for _, p := range plain {
		if p.Distinct > 0 {
			heapPerJob = append(heapPerJob, p.HeapGrowthKB/float64(p.Distinct))
		}
		alloc = append(alloc, p.AllocMB)
		pwall = append(pwall, p.WallS)
	}
	hits := c["server.cache_hits"] + c["server.cache_shared_hits"]
	return map[string]float64{
		"warm_p99_ms":                    latency(plain, perOp, func(p passRecord) []float64 { return p.WarmMS }, 0.99),
		"engine.cpu_frac":                prof.frac("engine"),
		"engine.ns_per_cycle":            perUnit("engine", "run.cycles"),
		"engine.skipped_edge_frac":       ratio(c["engine.skipped_edges"], c["engine.edges"]),
		"corelet.cpu_frac":               prof.frac("corelet"),
		"corelet.ns_per_inst":            perUnit("corelet", "corelet.instructions"),
		"corelet.insts":                  one("corelet.instructions"),
		"simt.cpu_frac":                  prof.frac("simt"),
		"simt.ns_per_warp_inst":          perUnit("simt", "simt.warp_insts"),
		"simt.warp_insts":                one("simt.warp_insts"),
		"simt.divergence_rate":           ratio(c["simt.divergences"], c["simt.cond_branches"]),
		"memory.cpu_frac":                prof.frac("memory"),
		"mem.issued":                     one("mem.issued"),
		"mem.stall_cycles":               one("mem.stall_cycles"),
		"mem.rejected":                   one("mem.rejected"),
		"dram.row_miss_rate":             ratio(c["dram.row_misses"], c["dram.requests"]),
		"prefetch.cpu_frac":              prof.frac("prefetch"),
		"stack.cpu_frac":                 prof.frac("stack"),
		"prefetch.ready_hit_frac":        ratio(c["prefetch.ready_hits"], c["prefetch.ready_hits"]+c["prefetch.starved"]+c["prefetch.stash_hits"]),
		"cache.hit_rate":                 ratio(c["cache.hits"], c["cache.hits"]+c["cache.misses"]),
		"stack.hit_rate":                 ratio(c["stack.served"], c["stack.accesses"]),
		"stack.rejected_per_access":      ratio(c["stack.rejected"], c["stack.accesses"]),
		"harness.cpu_frac":               prof.frac("harness"),
		"harness.build_ms":               perSim("build"),
		"harness.golden_ms":              perSim("golden"),
		"harness.verify_ms":              perSim("verify"),
		"serve.cpu_frac":                 prof.frac("serve"),
		"serve.submit_ms":                median(spans["serve.submit"]),
		"serve.queue_wait_ms":            median(spans["serve.queue_wait"]),
		"serve.run_ms":                   median(spans["serve.run"]),
		"serve.result_ms":                median(spans["serve.result"]),
		"store.hit_ms":                   median(spans["store.hit"]),
		"server.cache_hit_rate":          ratio(hits, hits+c["server.cache_misses"]),
		"server.jobs_rejected":           one("server.jobs_rejected"),
		"serve.heap_kb_per_distinct_job": median(heapPerJob),
		"runtime.cpu_frac":               prof.frac("runtime"),
		"runtime.gc_frac":                ratio(float64(prof.GCNS), float64(prof.TotalNS)),
		"alloc_mb_per_pass":              median(alloc),
		"trace.wall_s":                   median(twall),
		"trace.overhead_frac":            ratio(median(twall), median(pwall)) - 1,
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedFloats(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile is the nearest-rank percentile.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedFloats(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// sortedFloats returns a sorted copy.
func sortedFloats(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}
