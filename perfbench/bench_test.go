package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

// smokeConfig runs a workload at smoke size with the fewest passes.
func smokeConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: 3, seconds: 0, trace: trace,
		traceDir: t.TempDir(), size: smokeSize, minPasses: 2, setupReps: 2,
	}
}

// lastJSON parses the last output line as the result object and checks
// it has exactly the keys the contract names.
func lastJSON(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1]
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &keys); err != nil {
		t.Fatalf("last line is not JSON: %q: %v", last, err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if strings.Join(got, ",") != "attempted,correct,failed,metrics" {
		t.Fatalf("result keys = %v", got)
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		t.Fatal(err)
	}
	return r
}

// checkMetrics asserts every named metric was printed with its unit.
func checkMetrics(t *testing.T, got map[string]metricValue, want []metricSpec) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("printed %d metrics, want %d", len(got), len(want))
	}
	for _, m := range want {
		v, ok := got[m.name]
		if !ok {
			t.Errorf("metric %s not printed", m.name)
			continue
		}
		if v.Unit != m.unit {
			t.Errorf("metric %s unit %q, want %q", m.name, v.Unit, m.unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("metric %s = %v", m.name, v.Value)
		}
	}
}

func TestSmokeWorkloadsPrintEveryMetric(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				cfg := smokeConfig(t, name, trace)
				rp, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				printReport(&out, cfg, rp)
				res := lastJSON(t, out.String())
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("trace=%v: correct=%v failed=%d attempted=%d problems=%v",
						trace, res.Correct, res.Failed, res.Attempted, rp.problems)
				}
				if !trace {
					checkMetrics(t, res.Metrics, endToEndMetrics)
					if !strings.Contains(out.String(), "\ntrial_p99_ms ") {
						t.Error("trial_p99_ms not printed")
					}
					for _, m := range []string{"setup_s", "run_s", "trials_per_s", "cpu_s", "allocs_per_trial", "peak_heap_mb"} {
						if res.Metrics[m].Value <= 0 {
							t.Errorf("%s = %v, want > 0", m, res.Metrics[m].Value)
						}
					}
					continue
				}
				checkMetrics(t, res.Metrics, perLayerMetrics)
				checkTraceFile(t, cfg, rp)
			}
		})
	}
}

// checkTraceFile asserts the traced run wrote its spans and a CPU split
// that covers the whole profile.
func checkTraceFile(t *testing.T, cfg config, rp *report) {
	t.Helper()
	if rp.trace != filepath.Join(cfg.traceDir, cfg.workload+".json") {
		t.Fatalf("trace written to %q", rp.trace)
	}
	data, err := os.ReadFile(rp.trace)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, s := range tf.Spans {
		names[s.Name]++
		if s.EndNS < s.StartNS {
			t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Name == "row" && (s.Shard == nil || s.Parent == 0) {
			t.Errorf("row span %d lacks its shard or run parent", s.ID)
		}
	}
	want := []string{"setup", "testbed.build", "testbed.checkpoint", "scenario.run", "row"}
	if cfg.workload != "flat-floor" { // the only workload that never resets
		want = append(want, "pool.get", "pool.put", "testbed.reset")
	}
	for _, n := range want {
		if names[n] == 0 {
			t.Errorf("no %s span", n)
		}
	}
	var sum int64
	for _, ns := range tf.CPU.LayerNS {
		sum += ns
	}
	if sum != tf.CPU.TotalNS {
		t.Errorf("layers cover %d ns of a %d ns profile", sum, tf.CPU.TotalNS)
	}
	if tf.CPU.TotalNS > 0 {
		share := 0.0
		for _, l := range cpuLayers {
			share += rp.perLayer[l].Value
		}
		if math.Abs(share-1) > 1e-9 {
			t.Errorf("cpu shares sum to %v", share)
		}
	}
}

func TestInjectedRowMismatchRaisesFailedFrac(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			cfg := smokeConfig(t, name, false)
			victim := ""
			cfg.mutateRow = func(r *scenario.Row) {
				if victim == "" {
					victim = r.Spec.Name
				}
				if r.Spec.Name == victim {
					r.Internet = !r.Internet
				}
			}
			rp, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rp.Correct || rp.Failed == 0 || rp.Failed >= rp.Attempted {
				t.Fatalf("one corrupted row per pass: correct=%v failed=%d attempted=%d",
					rp.Correct, rp.Failed, rp.Attempted)
			}
		})
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range bj.Workloads {
		wl = append(wl, w.Name)
	}
	if strings.Join(wl, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", wl, workloadNames)
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		specs  []metricSpec
	}{{bj.EndToEnd, endToEndMetrics}, {bj.PerLayer, perLayerMetrics}} {
		if len(c.listed) != len(c.specs) {
			t.Errorf("BENCHMARK.json lists %d metrics, benchmark prints %d", len(c.listed), len(c.specs))
			continue
		}
		for i, m := range c.listed {
			if m.Name != c.specs[i].name || m.Unit != c.specs[i].unit {
				t.Errorf("BENCHMARK.json metric %d is %s [%s], benchmark prints %s [%s]",
					i, m.Name, m.Unit, c.specs[i].name, c.specs[i].unit)
			}
		}
	}
}

func TestAttributeChargesInnermostProgramFrame(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"fmt.Sprintf", "repro/internal/hoststack.(*Host).logf", "repro/internal/netsim.(*Network).run"}, "cpu.hoststack"},
		{[]string{"repro/internal/mgmtswitch.(*Switch).ingress", "repro/internal/scenario.RunWith"}, "cpu.netsim"},
		{[]string{"repro/internal/nat64.(*Translator).SessionCount", "repro/internal/scenario.(*trialRunner).runTrial"}, "cpu.gateway"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.newobject", "repro/internal/packet.Parse"}, "cpu.runtime.malloc"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/packet.Parse"}, "cpu.runtime.gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "cpu.runtime.gc"},
		{[]string{"main.(*recorder).ObserveRow", "repro/internal/scenario.(*trialRunner).runTrial"}, "cpu.other"},
		{[]string{"repro/internal/inet.(*Internet).Serve"}, "cpu.other"},
		{[]string{"runtime.futex", "runtime.findRunnable"}, "cpu.other"},
	}
	for _, c := range cases {
		if got, _ := attribute(c.frames); got != c.want {
			t.Errorf("attribute(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

//go:noinline
func burn(d time.Duration) int {
	x := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	return x
}

func TestReadCPUProfileReadsStacksAndLabels(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	pprof.Do(context.Background(), pprof.Labels("phase", "pass"), func(context.Context) { burn(300 * time.Millisecond) })
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	samples, err := readCPUProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		if s.ns <= 0 {
			t.Fatalf("sample with %d ns", s.ns)
		}
		for _, f := range s.frames {
			if f == "repro/perfbench.burn" && s.phase == "pass" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no labelled sample in burn among %d samples", len(samples))
	}
	split := splitCPU(samples)
	if split.unaccounted() != 0 || split.Samples != len(samples) {
		t.Fatalf("split leaves %d ns unaccounted over %d samples", split.unaccounted(), split.Samples)
	}
}

func TestParseTracesChecksTheTotal(t *testing.T) {
	const sep = "-----------+-------------------------------------------------------\n"
	text := "Type: cpu\nDuration: 1s, Total samples = 30000000ns (3.00%)\n" +
		sep + "     phase:  pass\n20000000ns   repro/internal/packet.Parse (inline)\n             repro/internal/hoststack.(*Host).recv\n" +
		sep + "10000000ns   runtime.futex\n" + sep
	samples, err := parseTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := []cpuSample{
		{frames: []string{"repro/internal/packet.Parse", "repro/internal/hoststack.(*Host).recv"}, ns: 20000000, phase: "pass"},
		{frames: []string{"runtime.futex"}, ns: 10000000},
	}
	if fmt.Sprint(samples) != fmt.Sprint(want) {
		t.Fatalf("parsed %v, want %v", samples, want)
	}
	if _, err := parseTraces(strings.Replace(text, "= 30000000ns", "= 40000000ns", 1)); err == nil {
		t.Fatal("a sample missing from the output went unnoticed")
	}
}
