package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"repro/internal/scenario"
	"repro/internal/testbed"
)

// Setup repetitions beyond config.setupReps stop at whichever of these
// comes first.
const (
	setupBudget  = 250 * time.Millisecond
	maxSetupReps = 25
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	// seconds is the time the timed passes run for; a traced run splits
	// it between untraced and traced passes.
	seconds  float64
	trace    bool
	traceDir string
	size     sizes
	// minPasses is the fewest passes a phase runs, however long they
	// take; setupReps is how many times setup is repeated for setup_s.
	minPasses int
	setupReps int
	// pinned enables the comparison with the seed-1 pinned digests.
	pinned bool
	// mutateRow, when set, alters each streamed row before it is
	// checked; the tests use it to inject a mismatch.
	mutateRow func(*scenario.Row)
}

// bench runs one workload.
type bench struct {
	cfg config
	w   workload
	// tr is nil in untraced phases.
	tr  *tracer
	rec *recorder
	orc *oracleRun

	attempted, failed int
	problems          []string
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is everything an invocation measured.
type report struct {
	result
	// endToEnd and perLayer hold the two metric sets; samples gives the
	// sample count behind each metric.
	endToEnd map[string]metricValue
	perLayer map[string]metricValue
	samples  map[string]int
	digest   string
	trace    string
	problems []string
}

// build assembles a world and records the span.
func (b *bench) build(spec testbed.Topology, parent int) (*testbed.Testbed, error) {
	start := time.Now()
	tb, err := testbed.Build(spec)
	b.tr.add("testbed.build", parent, nil, start, time.Now())
	if err != nil {
		return nil, fmt.Errorf("building world: %w", err)
	}
	return tb, nil
}

// checkpoint captures a world's post-build state and records the span.
func (b *bench) checkpoint(tb *testbed.Testbed, parent int) error {
	start := time.Now()
	err := tb.Checkpoint()
	b.tr.add("testbed.checkpoint", parent, nil, start, time.Now())
	if err != nil {
		return fmt.Errorf("checkpointing world: %w", err)
	}
	return nil
}

// poolGet checks a world out of pool, building spec on a miss. A miss
// is recorded as a build followed by a checkpoint, a hit as a reset.
func (b *bench) poolGet(pool *scenario.WorldPool, key any, spec testbed.Topology, parent int) (*testbed.Testbed, error) {
	start := time.Now()
	var buildStart, buildEnd time.Time
	tb, err := pool.Get(key, func() (*testbed.Testbed, error) {
		buildStart = time.Now()
		defer func() { buildEnd = time.Now() }()
		return testbed.Build(spec)
	})
	end := time.Now()
	if err != nil {
		return nil, fmt.Errorf("pool checkout: %w", err)
	}
	id := b.tr.add("pool.get", parent, nil, start, end)
	if buildStart.IsZero() {
		b.tr.add("testbed.reset", id, nil, start, end)
	} else {
		b.tr.add("testbed.build", id, nil, buildStart, buildEnd)
		b.tr.add("testbed.checkpoint", id, nil, buildEnd, end)
	}
	return tb, nil
}

// poolPut parks a world and records the span.
func (b *bench) poolPut(pool *scenario.WorldPool, key any, tb *testbed.Testbed, parent int) {
	start := time.Now()
	pool.Put(key, tb)
	b.tr.add("pool.put", parent, nil, start, time.Now())
}

// recorder is the RowSink of the timed passes. Per row it takes the
// time, the row's contract hash and the live heap, and in traced passes
// a row span; it allocates nothing in untraced passes once warm.
type recorder struct {
	tr      *tracer
	runSpan int
	mutate  func(*scenario.Row)

	buf   []byte
	rows  []rowKey
	first []time.Time // per shard, this pass
	last  []time.Time
	// trialMS holds every row interval of the invocation's untraced
	// passes.
	trialMS  []float64
	heap     []metrics.Sample
	peakLive uint64
}

func newRecorder(mutate func(*scenario.Row), devices int) *recorder {
	return &recorder{
		mutate: mutate,
		rows:   make([]rowKey, 0, devices),
		heap:   []metrics.Sample{{Name: "/gc/heap/live:bytes"}},
	}
}

// start readies the recorder for a pass.
func (r *recorder) start(tr *tracer, runSpan int) {
	r.tr, r.runSpan = tr, runSpan
	r.rows = r.rows[:0]
	r.first = r.first[:0]
	r.last = r.last[:0]
	r.peakLive = 0
}

// ObserveRow implements scenario.RowSink. Sharded runs serialize their
// rows onto it, so it needs no lock.
func (r *recorder) ObserveRow(row scenario.Row) {
	now := time.Now()
	if r.mutate != nil {
		r.mutate(&row)
	}
	s := row.Shard
	for len(r.last) <= s {
		r.first = append(r.first, time.Time{})
		r.last = append(r.last, time.Time{})
	}
	if prev := r.last[s]; prev.IsZero() {
		r.first[s] = now
	} else if r.tr != nil {
		shard := s
		r.tr.add("row", r.runSpan, &shard, prev, now)
	} else {
		r.trialMS = append(r.trialMS, float64(now.Sub(prev))/1e6)
	}
	r.last[s] = now
	r.rows = append(r.rows, rowKey{row.Spec.Name, rowHash(&r.buf, &row)})
	metrics.Read(r.heap)
	if v := r.heap[0].Value.Uint64(); v > r.peakLive {
		r.peakLive = v
	}
}

// shardSkew is the slowest shard's first-to-last-row time over the
// median shard's, for the pass just recorded (1 for a serial run).
func (r *recorder) shardSkew() float64 {
	var spans []float64
	for i := range r.first {
		if !r.first[i].IsZero() {
			spans = append(spans, r.last[i].Sub(r.first[i]).Seconds())
		}
	}
	if len(spans) < 2 {
		return 1
	}
	m := median(spans)
	if m <= 0 {
		return 1
	}
	sort.Float64s(spans)
	return spans[len(spans)-1] / m
}

// rtSample is a point reading of the process's runtime counters.
type rtSample struct {
	cpu     time.Duration // user+sys
	allocs  uint64        // heap objects allocated
	cycles  uint64        // completed GC cycles
	pauseNS uint64
	gcCPU   float64 // GC CPU seconds (runtime estimate)
	busyCPU float64 // non-idle CPU seconds (runtime estimate)
}

var rtMetrics = []string{
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() rtSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	ms := make([]metrics.Sample, len(rtMetrics))
	for i, n := range rtMetrics {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return rtSample{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:  ms[0].Value.Uint64(),
		cycles:  ms[1].Value.Uint64(),
		gcCPU:   ms[2].Value.Float64(),
		busyCPU: ms[3].Value.Float64() - ms[4].Value.Float64(),
		pauseNS: mem.PauseTotalNs,
	}
}

// passStat is one timed pass.
type passStat struct {
	wall     time.Duration
	rt       rtSample // deltas over the pass
	trials   int
	peakLive uint64
	skew     float64
	gets     int
	cold     int64
	counts   reportCounts
	// counters is the held world's counter delta (traced passes).
	counters *worldCounters
}

// reportCounts are the layer counts a pass's Report carries. They are
// copied out because a serial run's Report references its world
// through the query logs, and keeping it would keep the world alive.
type reportCounts struct {
	nat64Sessions, nat44LogEntries int
	poisoned, healthy              int
	traffic                        *scenario.TrafficReport
}

// setups runs the workload's setup at least minReps times, and for
// cheap setups until setupBudget has passed or maxSetupReps ran, and
// returns each duration. Each repetition starts after a collection, so
// none pays for garbage an earlier one left.
func (b *bench) setups(minReps int) ([]float64, error) {
	var out []float64
	first := time.Now()
	for i := 0; i < minReps || (i < maxSetupReps && time.Since(first) < setupBudget); i++ {
		runtime.GC()
		start := time.Now()
		id := b.tr.add("setup", 0, nil, start, start)
		if err := b.w.setup(b, id); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		end := time.Now()
		if b.tr != nil {
			b.tr.spans[id-1].EndNS = end.Sub(b.tr.epoch).Nanoseconds()
		}
		out = append(out, end.Sub(start).Seconds())
	}
	return out, nil
}

// runOracle computes the reference run for the invocation's seed.
func (b *bench) runOracle() error {
	c := &collectRows{}
	rep, err := b.w.oracle(c)
	if err != nil {
		return fmt.Errorf("oracle run: %w", err)
	}
	pinned := ""
	if b.cfg.pinned && b.cfg.seed == 1 {
		pinned = pinnedDigests[b.cfg.workload]
	}
	b.orc, err = newOracle(c, rep, b.w.names(), pinned)
	if err != nil {
		return err
	}
	if !b.orc.pinnedOK {
		b.problems = append(b.problems, fmt.Sprintf("oracle digest %s differs from the pinned seed-1 digest %s", b.orc.digest, pinned))
	}
	return nil
}

// passes runs timed passes for at least d and cfg.minPasses passes. A
// pass that errors ends the phase; its trials all count as failed.
func (b *bench) passes(d time.Duration, labels func(string, func())) []passStat {
	// The live heap the recorder samples is the one the last collection
	// marked. Collect now, so the first pass does not read one that
	// still holds the oracle's or an earlier setup's worlds; twice,
	// because sync.Pool caches survive one collection.
	runtime.GC()
	runtime.GC()
	var out []passStat
	deadline := time.Now().Add(d)
	n := len(b.orc.rows)
	for i := 0; i < b.cfg.minPasses || time.Now().Before(deadline); i++ {
		var ps passStat
		var rep *scenario.Report
		var err error
		labels("setup", func() { err = b.w.prepare(b, 0) })
		if err == nil {
			var before worldCounters
			held := b.w.held()
			if b.tr != nil && held != nil {
				before = readCounters(held)
			}
			cold0 := b.w.coldBuilds()
			rt0 := readRuntime()
			start := time.Now()
			runSpan := b.tr.add("scenario.run", 0, nil, start, start)
			b.rec.start(b.tr, runSpan)
			labels("pass", func() { rep, err = b.w.pass(b, b.rec) })
			end := time.Now()
			rt1 := readRuntime()
			if b.tr != nil {
				b.tr.spans[runSpan-1].EndNS = end.Sub(b.tr.epoch).Nanoseconds()
				if held != nil {
					c := readCounters(held).since(before)
					ps.counters = &c
				}
			}
			ps.wall = end.Sub(start)
			ps.rt = rtSample{
				cpu:     rt1.cpu - rt0.cpu,
				allocs:  rt1.allocs - rt0.allocs,
				cycles:  rt1.cycles - rt0.cycles,
				pauseNS: rt1.pauseNS - rt0.pauseNS,
				gcCPU:   rt1.gcCPU - rt0.gcCPU,
				busyCPU: rt1.busyCPU - rt0.busyCPU,
			}
			ps.trials = len(b.rec.rows)
			ps.peakLive = b.rec.peakLive
			ps.skew = b.rec.shardSkew()
			ps.gets = b.w.poolGets()
			ps.cold = b.w.coldBuilds() - cold0
		}
		if err == nil {
			labels("between", func() { err = b.w.afterPass(b, 0) })
		}
		b.attempted += n
		if err != nil {
			b.failed += n
			b.problems = append(b.problems, fmt.Sprintf("pass %d: %v", i, err))
			break
		}
		b.failed += b.check(rep)
		ps.counts = reportCounts{
			nat64Sessions: rep.NAT64Sessions, nat44LogEntries: rep.NAT44LogEntries,
			poisoned: rep.PoisonedQueries, healthy: rep.HealthyQueries, traffic: rep.Traffic,
		}
		out = append(out, ps)
	}
	return out
}

// check compares the pass just recorded with the oracle and returns how
// many of its trials failed.
func (b *bench) check(rep *scenario.Report) int {
	n := len(b.orc.rows)
	if !b.orc.pinnedOK {
		return n
	}
	sortRows(b.rec.rows)
	bad := rowMismatches(b.rec.rows, b.orc.rows)
	if aggregateDigest(rep) != b.orc.aggregate {
		if len(b.problems) < 8 {
			b.problems = append(b.problems, "pass report aggregates differ from the oracle")
		}
		return n
	}
	if bad > 0 && len(b.problems) < 8 {
		b.problems = append(b.problems, fmt.Sprintf("%d rows differ from the oracle", bad))
	}
	return bad
}

// run executes an invocation: setup, oracle and untraced passes, then,
// when tracing, a traced phase that yields the per-layer metrics.
func run(cfg config) (*report, error) {
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.size)
	if err != nil {
		return nil, err
	}
	defer w.close()
	b := &bench{cfg: cfg, w: w}
	noLabels := func(_ string, f func()) { f() }

	// Setup is timed in two batches, before and after the passes, so
	// setup_s samples the host at both ends of the run.
	setupS, err := b.setups((cfg.setupReps + 1) / 2)
	if err != nil {
		return nil, err
	}
	if err := b.runOracle(); err != nil {
		return nil, err
	}
	b.rec = newRecorder(cfg.mutateRow, len(b.orc.rows))
	phase := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		phase /= 2
	}
	untraced := b.passes(phase, noLabels)
	more, err := b.setups(cfg.setupReps / 2)
	if err != nil {
		return nil, err
	}
	setupS = append(setupS, more...)

	rp := &report{samples: map[string]int{}}
	e2e := b.endToEnd(setupS, untraced, rp.samples)
	if rp.endToEnd, err = withUnits(append(endToEndMetrics, tailMetrics...), e2e); err != nil {
		return nil, err
	}
	rp.digest = b.orc.digest
	rp.Metrics, _ = withUnits(endToEndMetrics, e2e) // a subset of the names just checked
	if cfg.trace && len(untraced) > 0 {
		if err := b.traced(phase, untraced, rp); err != nil {
			return nil, err
		}
	}
	if cfg.trace {
		// Without per-layer metrics (a failed pass) the result carries
		// none rather than the wrong set.
		rp.Metrics = rp.perLayer
		if rp.Metrics == nil {
			rp.Metrics = map[string]metricValue{}
		}
	}
	rp.Correct = len(b.problems) == 0 && b.failed == 0
	rp.Attempted = b.attempted
	rp.Failed = b.failed
	rp.problems = b.problems
	return rp, nil
}

// withUnits attaches each metric's unit, and fails if a named metric
// was not computed.
func withUnits(specs []metricSpec, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not computed", s.name)
		}
		out[s.name] = metricValue{v, s.unit}
	}
	return out, nil
}

// endToEnd computes the user-visible metrics of the untraced passes.
func (b *bench) endToEnd(setupS []float64, ps []passStat, samples map[string]int) map[string]float64 {
	var wall, cpu, peak []float64
	var trials int
	var total time.Duration
	var allocs uint64
	for _, p := range ps {
		wall = append(wall, p.wall.Seconds())
		cpu = append(cpu, p.rt.cpu.Seconds())
		total += p.wall
		trials += p.trials
		allocs += p.rt.allocs
		peak = append(peak, float64(p.peakLive)/(1<<20))
	}
	tms := append([]float64(nil), b.rec.trialMS...)
	sort.Float64s(tms)
	out := map[string]float64{
		"setup_s":          median(setupS),
		"run_s":            median(wall),
		"trials_per_s":     ratio(float64(trials), total.Seconds()),
		"trial_p50_ms":     quantileSorted(tms, 0.50),
		"trial_p99_ms":     quantileSorted(tms, 0.99),
		"cpu_s":            median(cpu),
		"allocs_per_trial": ratio(float64(allocs), float64(trials)),
		// A reading is the heap the last mark found live, which counts
		// what was allocated while it ran, so the highest reading of a
		// run depends on scheduling, the median pass's peak much less.
		"peak_heap_mb": median(peak),
	}
	samples["setup_s"] = len(setupS)
	for _, k := range []string{"run_s", "cpu_s", "peak_heap_mb"} {
		samples[k] = len(ps)
	}
	samples["trials_per_s"] = trials
	samples["allocs_per_trial"] = trials
	samples["trial_p50_ms"] = len(tms)
	samples["trial_p99_ms"] = len(tms)
	return out
}

// traced runs the traced phase: setup and passes again with spans on
// and the CPU profiler running, then reads the per-layer counters.
func (b *bench) traced(phase time.Duration, untraced []passStat, rp *report) error {
	b.tr = newTracer()
	ctx := context.Background()
	labels := func(name string, f func()) {
		pprof.Do(ctx, pprof.Labels("phase", name), func(context.Context) { f() })
	}
	if err := os.MkdirAll(b.cfg.traceDir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	profPath := filepath.Join(b.cfg.traceDir, b.cfg.workload+".cpu.pprof")
	prof, err := os.Create(profPath)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return fmt.Errorf("starting cpu profile: %w", err)
	}
	labels("setup", func() { _, err = b.setups(b.cfg.setupReps) })
	var ps []passStat
	if err == nil {
		ps = b.passes(phase, labels)
	}
	pprof.StopCPUProfile()
	if cerr := prof.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("cpu profile: %w", cerr)
	}
	if err != nil {
		return err
	}
	if len(ps) == 0 {
		return nil // the failed pass is already counted
	}

	// Counters of one pass: from the held world (every pass does the
	// same simulated work, so the last one stands for all), or from a
	// mirror replay of the sharded pass.
	var perPass worldCounters
	if m, ok := b.w.(*trafficChurn); ok {
		c := &collectRows{}
		counters, rep, err := m.mirror(c)
		if err != nil {
			return fmt.Errorf("mirror replay: %w", err)
		}
		mo, err := newOracle(c, rep, b.w.names(), "")
		if err != nil {
			return fmt.Errorf("mirror replay: %w", err)
		}
		if mo.digest != b.orc.digest {
			b.problems = append(b.problems, "mirror replay digest differs from the oracle")
		}
		perPass = counters
	} else {
		perPass = *ps[len(ps)-1].counters
	}
	heapMB, err := b.buildHeap()
	if err != nil {
		return err
	}

	samples, err := readCPUProfile(profPath)
	if err != nil {
		return err
	}
	split := splitCPU(samples)
	if split.unaccounted() != 0 {
		return fmt.Errorf("cpu split leaves %d ns unaccounted", split.unaccounted())
	}
	if rp.perLayer, err = withUnits(perLayerMetrics, b.layerMetrics(untraced, ps, perPass, split, heapMB)); err != nil {
		return err
	}
	tf := &traceFile{
		Workload: b.cfg.workload, Seed: b.cfg.seed, Metrics: rp.perLayer,
		CPU: split, Spans: b.tr.spans,
	}
	if rp.trace, err = tf.write(b.cfg.traceDir); err != nil {
		return err
	}
	return nil
}

// buildHeap measures the live heap one more world of the workload's
// topology adds once built and checkpointed. It forces collections, so
// it runs after the profile has stopped; each reading collects twice so
// that sync.Pool caches, which survive one collection, are gone.
func (b *bench) buildHeap() (float64, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	tb, err := testbed.Build(b.w.topology())
	if err != nil {
		return 0, fmt.Errorf("building world: %w", err)
	}
	if err := tb.Checkpoint(); err != nil {
		tb.Close()
		return 0, fmt.Errorf("checkpointing world: %w", err)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(tb)
	tb.Close()
	return (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / (1 << 20), nil
}

// layerMetrics computes the per-layer metrics of the traced passes.
func (b *bench) layerMetrics(untraced, ps []passStat, c worldCounters, split cpuSplit, heapMB float64) map[string]float64 {
	var runS, untracedS, cycles, pauses, skews []float64
	var gcCPU, busyCPU float64
	var gets, cold int64
	var gwPkts uint64
	for _, p := range ps {
		runS = append(runS, p.wall.Seconds())
		cycles = append(cycles, float64(p.rt.cycles))
		pauses = append(pauses, float64(p.rt.pauseNS)/1e6)
		skews = append(skews, p.skew)
		gcCPU += p.rt.gcCPU
		busyCPU += p.rt.busyCPU
		gets += int64(p.gets)
		cold += p.cold
	}
	for _, p := range untraced {
		untracedS = append(untracedS, p.wall.Seconds())
	}
	last := ps[len(ps)-1].counts
	nat64Pkts, nat64Bytes, nat44Pkts := c.NAT64Pkts, c.NAT64Bytes, c.NAT44Pkts
	var flows scenario.FlowStats
	if t := last.traffic; t != nil {
		g := t.Gateway
		nat64Pkts, nat64Bytes, nat44Pkts = g.NAT64PktsOut+g.NAT64PktsIn, g.NAT64BytesOut+g.NAT64BytesIn, g.NAT44Pkts
		flows = t.Flows
	}
	gwPkts = (nat64Pkts + nat44Pkts) * uint64(len(ps))
	passNS := split.PhaseLayerNS["pass"]
	warm := 0.0
	if gets > 0 {
		warm = float64(gets-cold) / float64(gets)
	}
	frames := float64(c.Frames) * float64(len(ps))

	m := map[string]float64{
		"testbed.build_ms":      median(b.tr.durations("testbed.build")),
		"testbed.checkpoint_ms": median(b.tr.durations("testbed.checkpoint")),
		"testbed.build_heap_mb": heapMB,
		"testbed.reset_ms":      median(b.tr.durations("testbed.reset")),

		"scenario.pool_warm_frac": warm,
		"scenario.shard_skew":     median(skews),

		"netsim.frames":            float64(c.Frames),
		"netsim.cpu_ns_per_frame":  ratio(float64(passNS["cpu.netsim"]), frames),
		"netsim.fanout_width":      ratio(float64(c.FanoutDel), float64(c.FanoutEvents)),
		"netsim.switch.flooded":    float64(c.Flooded),
		"netsim.switch.suppressed": float64(c.Suppressed),
		"netsim.ring_frames_frac":  ratio(float64(c.RingFrames), float64(c.Frames)),
		"netsim.ring_batch":        ratio(float64(c.RingFrames), float64(c.RingBatches)),
		"netsim.arena_hit_frac":    ratio(float64(c.Avoided), float64(c.PayloadsServed)),
		"netsim.queue_peak":        float64(c.QueuePeak),
		"netsim.dropped":           float64(c.Dropped),

		"gateway.nat64_pkts":        float64(nat64Pkts),
		"gateway.nat64_bytes":       float64(nat64Bytes),
		"gateway.nat44_pkts":        float64(nat44Pkts),
		"gateway.nat64_sessions":    float64(last.nat64Sessions),
		"gateway.nat44_log_entries": float64(last.nat44LogEntries),
		"gateway.cpu_ns_per_pkt":    ratio(float64(passNS["cpu.gateway"]), float64(gwPkts)),

		"dns.poisoned_queries": float64(last.poisoned),
		"dns.healthy_queries":  float64(last.healthy),
		"dhcp4.leases":         float64(c.Leases),

		"httpsim.flows_opened":         float64(flows.Opened),
		"httpsim.flows_completed_frac": ratio(float64(flows.Completed), float64(flows.Completed+flows.Aborted)),
		"httpsim.bytes_down":           float64(flows.BytesDown),

		"gc.cycles":   median(cycles),
		"gc.pause_ms": median(pauses),
		"gc.cpu_frac": ratio(gcCPU, busyCPU),

		"trace.overhead_frac": ratio(median(runS), median(untracedS)) - 1,
	}
	for l, v := range split.shares() {
		m[l] = v
	}
	return m
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantileSorted returns the q-quantile of sorted xs by linear
// interpolation between closest ranks (0 for none).
func quantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
