package main

import (
	"bytes"
	"errors"
	"fmt"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// This file reads the CPU profile the traced run takes with
// runtime/pprof and charges every sample to one layer. The samples come
// from `go tool pprof -traces`, which prints each one's labels, CPU time
// and stack, inlined frames expanded.

// cpuSample is one profile sample: its stack as function names, leaf
// first, the CPU time it stands for, and the benchmark phase label it
// carried.
type cpuSample struct {
	frames []string
	ns     int64
	phase  string
}

// readCPUProfile lists every sample of the CPU profile stored at path.
// It needs the go toolchain on PATH, as run.sh does.
func readCPUProfile(path string) ([]cpuSample, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-unit=ns", "-symbolize=none", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	return parseTraces(string(out))
}

// pprof -traces prints a header holding the profile's total, then one
// block per sample, each after a separator line: "key:  value" label
// lines, a line with the value and the leaf frame, and one line per
// outer frame.
const traceSeparator = "-----------+-------------------------------------------------------\n"

var (
	traceTotal = regexp.MustCompile(`Total samples = (\d+)(?:ns)? `)
	traceValue = regexp.MustCompile(`^ *(\d+)(?:ns)?   (\S.*)$`)
)

// parseTraces reads the output of pprof -traces -unit=ns. It fails
// unless the samples add up to the total in the header, so no sample
// (pprof skips those without a stack) goes uncharged.
func parseTraces(text string) ([]cpuSample, error) {
	blocks := strings.Split(text, traceSeparator)
	m := traceTotal.FindStringSubmatch(blocks[0])
	if m == nil {
		return nil, errors.New("cpu profile: pprof printed no sample total")
	}
	total, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var out []cpuSample
	var sum int64
	for _, blk := range blocks[1:] {
		if strings.TrimSpace(blk) == "" {
			continue
		}
		var s cpuSample
		for _, line := range strings.Split(strings.TrimRight(blk, "\n"), "\n") {
			if len(s.frames) > 0 {
				s.frames = append(s.frames, frameName(line))
				continue
			}
			if v := traceValue.FindStringSubmatch(line); v != nil {
				if s.ns, err = strconv.ParseInt(v[1], 10, 64); err != nil {
					return nil, fmt.Errorf("cpu profile: %w", err)
				}
				s.frames = append(s.frames, frameName(v[2]))
				continue
			}
			key, val, ok := strings.Cut(strings.TrimSpace(line), ":  ")
			if !ok {
				return nil, fmt.Errorf("cpu profile: unexpected pprof line %q", line)
			}
			if key == "phase" {
				s.phase = val
			}
		}
		if len(s.frames) == 0 {
			return nil, errors.New("cpu profile: pprof printed a sample without a stack")
		}
		sum += s.ns
		out = append(out, s)
	}
	if sum != total {
		return nil, fmt.Errorf("cpu profile: samples add up to %d ns of %d", sum, total)
	}
	return out, nil
}

// frameName strips pprof's layout from a frame line.
func frameName(line string) string {
	return strings.TrimSuffix(strings.TrimSpace(line), " (inline)")
}

// Layer names the CPU shares are reported under.
const (
	cpuGC    = "cpu.runtime.gc"
	cpuAlloc = "cpu.runtime.malloc"
	cpuOther = "cpu.other"
)

// cpuLayers lists every CPU share the traced run reports, in output
// order; together they cover the whole profile.
var cpuLayers = []string{
	"cpu.hoststack", "cpu.packet", "cpu.ndp", "cpu.netsim", "cpu.dhcp4",
	"cpu.testbed", "cpu.gateway", "cpu.dns", "cpu.scenario", "cpu.httpsim",
	cpuGC, cpuAlloc, cpuOther,
}

// packageLayer maps a repro/internal package to its CPU layer. The
// managed switch forwards through netsim, the translators sit inside
// the gateway, and the resolvers share the DNS wire code, so each group
// is one layer. Packages not listed fall into cpu.other.
var packageLayer = map[string]string{
	"hoststack":  "cpu.hoststack",
	"packet":     "cpu.packet",
	"ndp":        "cpu.ndp",
	"netsim":     "cpu.netsim",
	"mgmtswitch": "cpu.netsim",
	"dhcp4":      "cpu.dhcp4",
	"testbed":    "cpu.testbed",
	"gateway5g":  "cpu.gateway",
	"nat64":      "cpu.gateway",
	"nat44":      "cpu.gateway",
	"clat":       "cpu.gateway",
	"dns":        "cpu.dns",
	"dns64":      "cpu.dns",
	"dnspoison":  "cpu.dns",
	"dnswire":    "cpu.dns",
	"scenario":   "cpu.scenario",
	"httpsim":    "cpu.httpsim",
}

// gcFrame reports whether a runtime frame belongs to the garbage
// collector: background and assist marking, sweeping, scavenging,
// write-barrier flushes and explicit collections.
func gcFrame(fn string) bool {
	rest, ok := strings.CutPrefix(fn, "runtime.")
	if !ok {
		return false
	}
	for _, p := range []string{"gc", "GC", "bgsweep", "bgscavenge", "markroot", "scanobject", "scanstack", "greyobject", "wbBufFlush", "sweepone"} {
		if strings.HasPrefix(rest, p) {
			return true
		}
	}
	return false
}

// mallocFrame reports whether a frame is the heap allocator.
func mallocFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.mallocgc")
}

// framePackage returns the repro package a frame belongs to ("" for
// frames outside the program) and whether the frame is the benchmark's
// own code.
func framePackage(fn string) (pkg string, bench bool) {
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "repro/perfbench") {
		return "", true
	}
	rest, ok := strings.CutPrefix(fn, "repro/")
	if !ok {
		return "", false
	}
	// The package path ends at the first '.' after the last '/'.
	slash := strings.LastIndexByte(rest, '/')
	if dot := strings.IndexByte(rest[slash+1:], '.'); dot >= 0 {
		rest = rest[:slash+1+dot]
	}
	return rest[strings.LastIndexByte(rest, '/')+1:], false
}

// attribute charges one sample. Any garbage-collector frame on the
// stack charges it to cpu.runtime.gc, else any allocator frame to
// cpu.runtime.malloc. Otherwise the innermost frame that is either the
// program's or the benchmark's decides: a repro package charges its
// layer (so fmt or math/rand called from hoststack counts as
// hoststack), the benchmark's own code and everything unmatched charge
// cpu.other. The second result names the package for the detailed
// breakdown in the trace file.
func attribute(frames []string) (layer, pkg string) {
	for _, f := range frames {
		if gcFrame(f) {
			return cpuGC, "runtime.gc"
		}
	}
	for _, f := range frames {
		if mallocFrame(f) {
			return cpuAlloc, "runtime.malloc"
		}
	}
	for _, f := range frames {
		p, bench := framePackage(f)
		if bench {
			return cpuOther, "perfbench"
		}
		if p != "" {
			if l, ok := packageLayer[p]; ok {
				return l, p
			}
			return cpuOther, p
		}
	}
	return cpuOther, "outside"
}

// cpuSplit is the per-layer charge of a profile.
type cpuSplit struct {
	// TotalNS is the CPU time of every sample; LayerNS and PackageNS
	// each partition it.
	TotalNS   int64            `json:"total_ns"`
	Samples   int              `json:"samples"`
	LayerNS   map[string]int64 `json:"layer_ns"`
	PackageNS map[string]int64 `json:"package_ns"`
	// PhaseLayerNS splits LayerNS by the benchmark phase the sample ran
	// in (setup, pass, between).
	PhaseLayerNS map[string]map[string]int64 `json:"phase_layer_ns"`
}

// splitCPU charges every sample to exactly one layer.
func splitCPU(samples []cpuSample) cpuSplit {
	s := cpuSplit{
		LayerNS:      make(map[string]int64, len(cpuLayers)),
		PackageNS:    map[string]int64{},
		PhaseLayerNS: map[string]map[string]int64{},
	}
	for _, l := range cpuLayers {
		s.LayerNS[l] = 0
	}
	for _, smp := range samples {
		layer, pkg := attribute(smp.frames)
		s.TotalNS += smp.ns
		s.Samples++
		s.LayerNS[layer] += smp.ns
		s.PackageNS[pkg] += smp.ns
		phase := smp.phase
		if phase == "" {
			phase = "unlabelled"
		}
		if s.PhaseLayerNS[phase] == nil {
			s.PhaseLayerNS[phase] = map[string]int64{}
		}
		s.PhaseLayerNS[phase][layer] += smp.ns
	}
	return s
}

// shares returns each layer's fraction of the whole profile. They sum
// to 1 whenever the profile holds any sample.
func (s cpuSplit) shares() map[string]float64 {
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		if s.TotalNS > 0 {
			out[l] = float64(s.LayerNS[l]) / float64(s.TotalNS)
		} else {
			out[l] = 0
		}
	}
	return out
}

// unaccounted returns the CPU time no layer was charged with; it is
// zero by construction, and the traced run checks it.
func (s cpuSplit) unaccounted() int64 {
	var sum int64
	for _, ns := range s.LayerNS {
		sum += ns
	}
	return s.TotalNS - sum
}
