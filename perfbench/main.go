// Command perfbench is the repository's benchmark. It runs one of three
// scenario workloads through the simulator's public calls for a fixed
// time, checks every pass against a fresh-build serial oracle, and ends
// with one JSON line of metrics:
//
//	perfbench --workload flat-floor --seed 1 --seconds 35 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (host time, CPU,
// allocations, heap). With --trace 1 half the time runs untraced and
// half traced, and the metrics are the per-layer split: spans around the
// benchmark's calls, layer counters read from the worlds it holds, and
// CPU profile shares per package group. The traced run also writes
// <trace-dir>/<workload>.json. Run it through run.sh, which builds it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEndMetrics are the result metrics of untraced runs.
var endToEndMetrics = []metricSpec{
	{"setup_s", "s"}, {"run_s", "s"}, {"trials_per_s", "1/s"},
	{"trial_p50_ms", "ms"}, {"cpu_s", "s"},
	{"allocs_per_trial", "count"}, {"peak_heap_mb", "MB"},
}

// tailMetrics are printed with the end-to-end metrics but left out of
// the result: the 99th-percentile trial time moves by up to a third
// between runs on a shared host, more than any regression bound it could
// carry.
var tailMetrics = []metricSpec{{"trial_p99_ms", "ms"}}

// perLayerMetrics are printed by traced runs.
var perLayerMetrics = func() []metricSpec {
	out := []metricSpec{
		{"testbed.build_ms", "ms"}, {"testbed.checkpoint_ms", "ms"},
		{"testbed.build_heap_mb", "MB"}, {"testbed.reset_ms", "ms"},
		{"scenario.pool_warm_frac", "frac"}, {"scenario.shard_skew", "ratio"},
		{"netsim.frames", "count"}, {"netsim.cpu_ns_per_frame", "ns"},
		{"netsim.fanout_width", "frames"}, {"netsim.switch.flooded", "count"},
		{"netsim.switch.suppressed", "count"}, {"netsim.ring_frames_frac", "frac"},
		{"netsim.ring_batch", "frames"}, {"netsim.arena_hit_frac", "frac"},
		{"netsim.queue_peak", "count"}, {"netsim.dropped", "count"},
		{"gateway.nat64_pkts", "count"}, {"gateway.nat64_bytes", "bytes"},
		{"gateway.nat44_pkts", "count"}, {"gateway.nat64_sessions", "count"},
		{"gateway.nat44_log_entries", "count"}, {"gateway.cpu_ns_per_pkt", "ns"},
		{"dns.poisoned_queries", "count"}, {"dns.healthy_queries", "count"},
		{"dhcp4.leases", "count"},
		{"httpsim.flows_opened", "count"}, {"httpsim.flows_completed_frac", "frac"},
		{"httpsim.bytes_down", "bytes"},
		{"gc.cycles", "count"}, {"gc.pause_ms", "ms"}, {"gc.cpu_frac", "frac"},
	}
	for _, l := range cpuLayers {
		out = append(out, metricSpec{l, "frac"})
	}
	return append(out, metricSpec{"trace.overhead_frac", "frac"})
}()

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli parses args, runs the benchmark and prints its report; it returns
// the exit code.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 35, "seconds of timed passes")
	trace := fs.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	traceDir := fs.String("trace-dir", ".bench_build/perfbench/traces", "directory the traced run writes its trace file to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintln(stderr, "perfbench: bad arguments; see -h")
		return 2
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		traceDir: *traceDir, size: fullSize, minPasses: 3, setupReps: 5, pinned: true,
	}
	rp, err := run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	printReport(stdout, cfg, rp)
	return 0
}

// printReport writes the human-readable lines and then the JSON result
// as the last line.
func printReport(w io.Writer, cfg config, rp *report) {
	fmt.Fprintf(w, "workload %s seed %d: %d trials attempted, %d failed (failed_frac %.6f)\n",
		cfg.workload, cfg.seed, rp.Attempted, rp.Failed, ratio(float64(rp.Failed), float64(rp.Attempted)))
	fmt.Fprintf(w, "oracle digest %s\n", rp.digest)
	for _, p := range sortedProblems(rp) {
		fmt.Fprintf(w, "problem: %s\n", p)
	}
	for _, m := range append(endToEndMetrics, tailMetrics...) {
		v := rp.endToEnd[m.name]
		fmt.Fprintf(w, "%-18s %14.6g %-6s (n=%d)\n", m.name, v.Value, v.Unit, rp.samples[m.name])
	}
	if cfg.trace {
		for _, m := range perLayerMetrics {
			v := rp.perLayer[m.name]
			fmt.Fprintf(w, "%-30s %14.6g %s\n", m.name, v.Value, v.Unit)
		}
		fmt.Fprintf(w, "trace written to %s\n", rp.trace)
	}
	line, _ := json.Marshal(rp.result) // plain numbers and strings: cannot fail
	fmt.Fprintln(w, string(line))
}

func sortedProblems(rp *report) []string {
	out := append([]string(nil), rp.problems...)
	sort.Strings(out)
	return out
}
