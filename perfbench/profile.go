package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strings"
)

// layerOfPackage maps the repository's packages (under repro/internal/)
// onto the layers of the per-layer table.
var layerOfPackage = map[string]string{
	"sim":     "engine",
	"corelet": "corelet", "core": "corelet", "ssmc": "corelet", "multicore": "corelet",
	"simt": "simt",
	"mem":  "memory", "memctrl": "memory", "dram": "memory",
	"prefetch": "prefetch", "cache": "prefetch",
	"stack":   "stack",
	"harness": "harness", "datagen": "harness", "layout": "harness", "workloads": "harness",
	"kernels": "harness", "asm": "harness", "arch": "harness", "energy": "harness",
	"metrics": "harness", "stats": "harness", "mapreduce": "harness", "node": "harness",
	"trace": "harness", "benchreport": "harness",
	"server": "serve", "router": "serve", "rescache": "serve", "jobs": "serve", "sla": "serve",
}

// sharedPackages hold instruction semantics that both the corelet
// interpreter and the SIMT model call; their CPU counts against the
// calling layer, so the two interpreters' shares stay separable.
var sharedPackages = map[string]bool{"isa": true}

// layerOrder is the presentation order of the layer table. "bench" is the
// benchmark's own client code; "runtime" is CPU with no repository frame
// on the stack (GC workers, the scheduler).
var layerOrder = []string{"engine", "corelet", "simt", "memory", "prefetch", "stack", "harness", "serve", "bench", "runtime"}

// harnessPhases attributes harness CPU to the phases of one simulation by
// the public call on the stack: building the model (construct and pack the
// DRAM image), folding the golden reference, and verifying live state.
var harnessPhases = []struct{ phase, fn string }{
	{"golden", "repro/internal/workloads.(*Benchmark).GoldenStatesStreamed"},
	{"build", "repro/internal/harness.buildLaunch"},
	{"build", "repro/internal/core.NewProcessor"},
	{"build", "repro/internal/ssmc.NewProcessor"},
	{"build", "repro/internal/simt.NewSM"},
	{"verify", "repro/internal/workloads.ExtractStates"},
	{"verify", "repro/internal/harness.RunWith.func1"},
}

var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.gcStart", "runtime.gcMarkTermination"}

// layerOf returns the layer of a function, or "" for code outside the
// repository and for shared packages.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	if sharedPackages[pkg] {
		return ""
	}
	if l, ok := layerOfPackage[pkg]; ok {
		return l
	}
	return "harness"
}

// profileSummary is CPU time from one or more CPU profiles, grouped.
type profileSummary struct {
	TotalNS int64
	LayerNS map[string]int64
	PhaseNS map[string]int64
	GCNS    int64
	Samples int
}

// readProfiles parses pprof CPU profiles (gzipped profile.proto) and
// attributes each sample to the layer of its innermost repository frame,
// so standard-library work (allocation, encoding) counts against the layer
// that asked for it.
func readProfiles(paths []string) (profileSummary, error) {
	s := profileSummary{LayerNS: map[string]int64{}, PhaseNS: map[string]int64{}}
	for _, p := range paths {
		if err := s.add(p); err != nil {
			return s, fmt.Errorf("profile %s: %w", p, err)
		}
	}
	return s, nil
}

func (s *profileSummary) add(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	prof, err := decodeProfile(data)
	if err != nil {
		return err
	}
	for _, smp := range prof.samples {
		if len(smp.values) == 0 {
			continue
		}
		ns := smp.values[len(smp.values)-1] // CPU profiles: [samples, cpu ns]
		var names []string
		for _, loc := range smp.locs {
			for _, fid := range prof.locFuncs[loc] {
				names = append(names, prof.funcName[fid])
			}
		}
		layer := "runtime"
		for _, n := range names {
			if l := layerOf(n); l != "" {
				layer = l
				break
			}
		}
		s.TotalNS += ns
		s.Samples++
		s.LayerNS[layer] += ns
		if phase := phaseOf(names); phase != "" {
			s.PhaseNS[phase] += ns
		}
		if hasAny(names, gcFrames) {
			s.GCNS += ns
		}
	}
	return nil
}

func phaseOf(names []string) string {
	for _, ph := range harnessPhases {
		for _, n := range names {
			if n == ph.fn {
				return ph.phase
			}
		}
	}
	return ""
}

func hasAny(names, want []string) bool {
	for _, n := range names {
		for _, w := range want {
			if n == w {
				return true
			}
		}
	}
	return false
}

func (s profileSummary) frac(layer string) float64 {
	if s.TotalNS == 0 {
		return 0
	}
	return float64(s.LayerNS[layer]) / float64(s.TotalNS)
}

// decoded is the part of a profile.proto the layer table needs.
type decoded struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// decodeProfile is a small stdlib-only reader of the profile.proto wire
// format: samples (field 2), locations (4), functions (5) and the string
// table (6).
func decodeProfile(data []byte) (decoded, error) {
	d := decoded{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]string{}}
	var strs []string
	funcStr := map[uint64]uint64{}
	err := eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var smp sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					smp.locs = appendVarints(smp.locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						smp.values = append(smp.values, int64(x))
					}
				}
				return nil
			})
			d.samples = append(d.samples, smp)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			d.locFuncs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcStr[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return d, err
	}
	for id, si := range funcStr {
		if si >= uint64(len(strs)) {
			return d, fmt.Errorf("function %d: string index %d out of range", id, si)
		}
		d.funcName[id] = strs[si]
	}
	return d, nil
}

// eachField walks one protobuf message. For varint fields fn gets the
// value; for length-delimited fields it gets the bytes (fixed-width fields
// are skipped: the profile fields read here have none).
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), key&7
		switch wt {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", num)
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64 in field %d", num)
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length in field %d", num)
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32 in field %d", num)
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wt, num)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (data non-nil) or
// not.
func appendVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// printLayerTable writes the traced passes' CPU split by layer.
func printLayerTable(w io.Writer, workload string, s profileSummary) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "layer table (%s, %d CPU samples, %.3f CPU s):\n", workload, s.Samples, float64(s.TotalNS)/1e9)
	fmt.Fprintf(&buf, "  %-10s %8s %10s\n", "layer", "cpu_frac", "cpu_ms")
	for _, l := range layerOrder {
		fmt.Fprintf(&buf, "  %-10s %8.4f %10.1f\n", l, s.frac(l), float64(s.LayerNS[l])/1e6)
	}
	fmt.Fprintf(&buf, "  harness phases (cpu_ms): build %.1f, golden %.1f, verify %.1f; gc %.1f\n",
		float64(s.PhaseNS["build"])/1e6, float64(s.PhaseNS["golden"])/1e6, float64(s.PhaseNS["verify"])/1e6, float64(s.GCNS)/1e6)
	w.Write(buf.Bytes())
}
