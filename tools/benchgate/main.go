// Command benchgate is the benchmark regression gate: it reads `go test
// -bench` output on stdin, loads BENCH_N.json snapshots named on the
// command line, and fails (exit 1) if any benchmark present in both
// measures above a snapshot-recorded metric plus that metric's slack.
// Three metrics are gated, each only when the snapshot records it:
// allocs/op and bytes/client (the fabric memory diet — the marginal
// heap cost of one registered client in a million-client world) at 10%
// slack, since deterministic simulations allocate deterministically;
// and ns/op at 2.5x slack, wide enough to absorb shared-runner CI
// timing noise while still catching an order-of-magnitude slowdown
// like a lost fast path or an accidental fresh-build in a pooled loop.
// A snapshot value of 0 is gated strictly under any slack — a single
// op of per-frame garbage on the ring drain loop fails CI. Benchmarks
// in the snapshot that never appear on stdin also fail, as does a
// recorded metric missing from a benchmark's output line, so a renamed
// benchmark or a dropped ReportMetric cannot silently disarm the gate.
//
// Multiple snapshots merge in argument order, later files overriding
// earlier ones per metric, so passing the whole BENCH_1..BENCH_8
// trajectory gates each benchmark at its most recently recorded value.
//
// Usage: go test -run '^$' -bench X -benchmem . | benchgate BENCH_4.json [BENCH_5.json ...]
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strconv"
)

// measure is one recorded benchmark measurement. Gated fields are
// pointers: a snapshot records only the metrics a benchmark reports,
// and the gate checks only what the snapshot records. Fields the gate
// does not compare are ignored during decoding.
type measure struct {
	NsOp        *float64 `json:"ns_op"`
	AllocsOp    *float64 `json:"allocs_op"`
	BytesClient *float64 `json:"bytes_client"`
}

// record is a snapshot entry: before/after measurements, either of
// which may be absent (null).
type record struct {
	Before *measure `json:"before"`
	After  *measure `json:"after"`
}

// snapshot mirrors the BENCH_N.json layout the repo records benchmark
// passes in.
type snapshot struct {
	Benchmarks map[string]record `json:"benchmarks"`
}

// Per-metric multiplicative tolerances. Allocation counts from a
// deterministic simulation see only small GC/sync.Pool jitter, so
// memory metrics get 10%; wall-clock on a shared CI runner does not,
// so ns/op gets 2.5x — a smoke alarm for lost fast paths, not a
// microbenchmark referee. 0-valued records stay strict under any
// slack because 0*k is still 0.
const (
	memSlack  = 1.10
	timeSlack = 2.50
)

// benchName matches a benchmark result line and captures the full
// name; gomaxprocsSuffix strips the trailing -N go test appends when
// GOMAXPROCS > 1. The suffix is only stripped as a fallback when the
// full name has no snapshot entry, because it is syntactically
// indistinguishable from a sub-benchmark name that happens to end in
// digits (BenchmarkBroadcastDomain/clients-250 is a sub-benchmark on a
// single-core runner, not clients-2 at GOMAXPROCS=50).
var (
	benchName        = regexp.MustCompile(`^(Benchmark\S+)\s`)
	gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)
)

// metric describes one gated metric: how to find it on a result line,
// how to read it out of a snapshot measure, and how much headroom the
// recorded value gets.
type metric struct {
	name  string
	line  *regexp.Regexp
	get   func(*measure) *float64
	slack float64
}

var metrics = []metric{
	{
		name:  "ns/op",
		line:  regexp.MustCompile(`(\d+(?:\.\d+)?) ns/op`),
		get:   func(m *measure) *float64 { return m.NsOp },
		slack: timeSlack,
	},
	{
		name:  "allocs/op",
		line:  regexp.MustCompile(`(\d+(?:\.\d+)?) allocs/op`),
		get:   func(m *measure) *float64 { return m.AllocsOp },
		slack: memSlack,
	},
	{
		name:  "bytes/client",
		line:  regexp.MustCompile(`(\d+(?:\.\d+)?) bytes/client`),
		get:   func(m *measure) *float64 { return m.BytesClient },
		slack: memSlack,
	},
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: go test -bench ... -benchmem | benchgate BENCH_N.json [BENCH_M.json ...]")
		os.Exit(2)
	}

	// want[benchmark][metric] = recorded limit.
	want := make(map[string]map[string]float64)
	for _, path := range os.Args[1:] {
		raw, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		var snap snapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: parsing %s: %v\n", path, err)
			os.Exit(2)
		}
		for name, rec := range snap.Benchmarks {
			m := rec.After
			if m == nil {
				m = rec.Before
			}
			if m == nil {
				continue
			}
			for _, g := range metrics {
				if v := g.get(m); v != nil {
					if want[name] == nil {
						want[name] = make(map[string]float64)
					}
					want[name][g.name] = *v
				}
			}
		}
	}
	if len(want) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: snapshots record no gateable benchmarks")
		os.Exit(2)
	}

	failed := false
	seen := make(map[string]map[string]bool)
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass the bench output through for the CI log
		nm := benchName.FindStringSubmatch(line)
		if nm == nil {
			continue
		}
		name := nm[1]
		limits, gated := want[name]
		if !gated {
			// Retry with the -GOMAXPROCS suffix stripped; keep the
			// snapshot-side name so the seen bookkeeping lines up.
			name = gomaxprocsSuffix.ReplaceAllString(name, "")
			limits, gated = want[name]
		}
		if !gated {
			continue
		}
		if seen[name] == nil {
			seen[name] = make(map[string]bool)
		}
		for _, g := range metrics {
			limit, ok := limits[g.name]
			if !ok {
				continue
			}
			m := g.line.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			seen[name][g.name] = true
			got, err := strconv.ParseFloat(m[1], 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchgate: %s: unparsable %s %q\n", name, g.name, m[1])
				failed = true
				continue
			}
			if got > limit*g.slack {
				fmt.Fprintf(os.Stderr, "benchgate: FAIL %s: %.2f %s exceeds snapshot %.2f (x%.2f slack)\n",
					name, got, g.name, limit, g.slack)
				failed = true
			} else {
				fmt.Fprintf(os.Stderr, "benchgate: ok   %s: %.2f %s (snapshot %.2f, x%.2f slack)\n",
					name, got, g.name, limit, g.slack)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: reading stdin: %v\n", err)
		os.Exit(2)
	}
	for name, limits := range want {
		for mname := range limits {
			if !seen[name][mname] {
				fmt.Fprintf(os.Stderr, "benchgate: FAIL %s: %s recorded in snapshot but absent from bench output\n", name, mname)
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}
