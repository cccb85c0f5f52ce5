package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"repro/internal/dns"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/pathology"
	"repro/internal/testbed"
)

// collectSink gathers streamed rows for reconstruction in tests.
type collectSink struct {
	rows []Row
}

func (c *collectSink) ObserveRow(r Row) { c.rows = append(c.rows, r) }

// reconstructDevices sorts rows by (Shard, Index) — the documented
// global order — and strips them back to DeviceResults.
func reconstructDevices(rows []Row) []DeviceResult {
	sorted := append([]Row(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Shard != sorted[j].Shard {
			return sorted[i].Shard < sorted[j].Shard
		}
		return sorted[i].Index < sorted[j].Index
	})
	out := make([]DeviceResult, len(sorted))
	for i, r := range sorted {
		out[i] = r.DeviceResult
	}
	return out
}

// streamRegime is one fault-injection flavor the stream ≡ legacy
// goldens run under.
type streamRegime struct {
	name string
	fac  func(seed int64, n int) SizedWorldFactory
	run  RunOptions
}

// streamRegimes covers three regimes: link impairment, reboot churn,
// and a stateful pathology (grid-aligned flap schedule + recovery).
func streamRegimes(n int) []streamRegime {
	return []streamRegime{
		{
			name: "impair",
			fac: func(seed int64, _ int) SizedWorldFactory {
				return sized(ChaosSpec(seed, n, 0, 0.10))
			},
		},
		{
			name: "churn",
			fac: func(_ int64, _ int) SizedWorldFactory {
				return sized(testbed.ScaleTopology(testbed.DefaultOptions(), n))
			},
			run: RunOptions{RebootsPerDevice: 1},
		},
		{
			name: "stateful",
			fac: func(_ int64, _ int) SizedWorldFactory {
				return pathology.FactorySized(
					testbed.ScaleTopology(testbed.DefaultOptions(), n), "dns64-flapping")
			},
		},
	}
}

// TestStreamedRowsMatchLegacy is the flat-path stream ≡ legacy golden:
// for impairment, churn and a stateful pathology, seeds 1..5 and
// K ∈ {2, 8}, a sharded run with DiscardDevices and a streaming sink
// must reproduce the legacy retained-Devices serial report exactly —
// aggregates from the incremental fold, per-device rows reconstructed
// from the stream in (Shard, Index) order.
func TestStreamedRowsMatchLegacy(t *testing.T) {
	const n = 10
	for _, reg := range streamRegimes(n) {
		for seed := int64(1); seed <= 5; seed++ {
			devices := Population(seed, n, DefaultMix())
			fac := reg.fac(seed, n)

			world, err := fac(len(devices))
			if err != nil {
				t.Fatalf("%s seed %d: %v", reg.name, seed, err)
			}
			legacy := RunWith(world, devices, reg.run)
			world.Close()

			for _, k := range []int{2, 8} {
				t.Run(fmt.Sprintf("%s/seed%d/k%d", reg.name, seed, k), func(t *testing.T) {
					sink := &collectSink{}
					ro := reg.run
					ro.Sink = sink
					ro.DiscardDevices = true
					streamed, err := RunShardedSized(fac, devices, ShardOptions{
						Shards: k, Seed: seed, Run: ro,
					})
					if err != nil {
						t.Fatal(err)
					}
					if len(streamed.Devices) != 0 {
						t.Fatalf("DiscardDevices run retained %d devices", len(streamed.Devices))
					}
					if len(sink.rows) != len(devices) {
						t.Fatalf("streamed %d rows, want %d", len(sink.rows), len(devices))
					}
					streamed.Devices = reconstructDevices(sink.rows)
					assertReportsMatch(t, legacy, streamed)
				})
			}
		}
	}
}

// TestStreamedRowsMatchLegacyFabric extends the stream ≡ legacy golden
// to the fabric engine: subtree-sharded runs under 10% loss (and a
// churn variant) with DiscardDevices plus a sink must rebuild the
// legacy serial fabric report row for row.
func TestStreamedRowsMatchLegacyFabric(t *testing.T) {
	cases := []struct {
		name string
		spec testbed.Topology
		opt  FabricOptions
	}{
		{
			name: "impair",
			spec: fabricSpec(3),
			opt:  FabricOptions{Seed: 3, ActorsPerDomain: 2},
		},
		{
			name: "churn",
			spec: func() testbed.Topology {
				spec := testbed.FabricTopology(testbed.DefaultOptions(), 4, 4)
				spec.Impair = netsim.Impairment{Loss: 0.05}
				spec.ChaosSeed = 7
				return spec
			}(),
			opt: FabricOptions{Seed: 7, ActorsPerDomain: 2, Run: RunOptions{RebootsPerDevice: 1}},
		},
	}
	for _, tc := range cases {
		legacy, err := RunFabric(tc.spec, tc.opt)
		if err != nil {
			t.Fatalf("%s serial: %v", tc.name, err)
		}
		for _, k := range []int{2, 8} {
			t.Run(fmt.Sprintf("%s/k%d", tc.name, k), func(t *testing.T) {
				sink := &collectSink{}
				opt := tc.opt
				opt.Shards = k
				opt.Run.Sink = sink
				opt.Run.DiscardDevices = true
				streamed, err := RunFabric(tc.spec, opt)
				if err != nil {
					t.Fatal(err)
				}
				if len(streamed.Devices) != 0 {
					t.Fatalf("DiscardDevices run retained %d devices", len(streamed.Devices))
				}
				if len(sink.rows) != len(legacy.Devices) {
					t.Fatalf("streamed %d rows, want %d", len(sink.rows), len(legacy.Devices))
				}
				streamed.Devices = reconstructDevices(sink.rows)
				assertReportsMatch(t, legacy, streamed)
			})
		}
	}
}

// reportDigest hashes every observable field of a report — aggregates,
// per-device rows, per-class and per-profile folds, traffic ledgers and
// the query logs — into one hex digest, so two reports are equal iff
// their digests are.
func reportDigest(rep *Report) string {
	h := sha256.New()
	fmt.Fprintf(h, "agg %d %d %d %d %d %d %d %d %d %d\n",
		rep.Joined, rep.Informed, rep.InternetOK, rep.ReportedSSIDClients,
		rep.TrueIPv6Only, rep.Overcount, rep.NAT44LogEntries, rep.NAT64Sessions,
		rep.PoisonedQueries, rep.HealthyQueries)
	for _, d := range rep.Devices {
		fmt.Fprintf(h, "dev %s %s %v %v %v %v %v %v %+v\n",
			d.Spec.Name, d.Class, d.Informed, d.Internet, d.UsedIPv6,
			d.Churned, d.Reconverged, d.ConvergeTime, d.Flows)
	}
	classes := make([]string, 0, len(rep.Classes))
	for c := range rep.Classes {
		classes = append(classes, string(c))
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(h, "class %s %d\n", c, rep.Classes[metrics.Class(c)])
	}
	profs := make([]string, 0, len(rep.Profiles))
	for p := range rep.Profiles {
		profs = append(profs, p)
	}
	sort.Strings(profs)
	for _, p := range profs {
		fmt.Fprintf(h, "prof %s %+v\n", p, rep.Profiles[p])
	}
	convs := make([]string, 0, len(rep.Convergence))
	for c := range rep.Convergence {
		convs = append(convs, string(c))
	}
	sort.Strings(convs)
	for _, c := range convs {
		fmt.Fprintf(h, "conv %s %+v\n", c, rep.Convergence[metrics.Class(c)])
	}
	if rep.Traffic != nil {
		fmt.Fprintf(h, "traffic %+v %+v\n", rep.Traffic.Flows, rep.Traffic.Gateway)
		tcs := make([]string, 0, len(rep.Traffic.PerClass))
		for c := range rep.Traffic.PerClass {
			tcs = append(tcs, string(c))
		}
		sort.Strings(tcs)
		for _, c := range tcs {
			fmt.Fprintf(h, "tclass %s %+v\n", c, rep.Traffic.PerClass[metrics.Class(c)])
		}
	}
	for _, l := range []struct {
		tag string
		log *dns.QueryLog
	}{{"poison", rep.PoisonLog}, {"healthy", rep.HealthyLog}} {
		if l.log == nil {
			continue
		}
		for _, q := range l.log.Queries {
			fmt.Fprintf(h, "%s %s %d %d\n", l.tag, q.Name, q.Type, q.Class)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// resetRegimes are the fault-injection flavors the Reset-vs-fresh
// golden runs under: chaos impairment, reboot churn, and the stateful
// pathologies with schedules and budgets.
func resetRegimes(n int) []streamRegime {
	regs := streamRegimes(n)
	regs = append(regs, streamRegime{
		name: "exhaustion",
		fac: func(_ int64, _ int) SizedWorldFactory {
			return pathology.FactorySized(
				testbed.ScaleTopology(testbed.DefaultOptions(), n), "nat64-port-exhaustion")
		},
	})
	return regs
}

// TestResetMatchesFreshBuild is the world-reuse golden: a checkpointed
// world that runs a population, Resets, and runs again must reproduce a
// fresh-build world's report digest-for-digest, under chaos, churn and
// stateful-pathology regimes. This pins the entire checkpoint layer —
// event queue, switch tables, gateway NAT/DHCP state, resolver caches,
// RA beacon phase and pathology gates all rewound exactly.
func TestResetMatchesFreshBuild(t *testing.T) {
	const n = 10
	for _, reg := range resetRegimes(n) {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", reg.name, seed), func(t *testing.T) {
				devices := Population(seed, n, DefaultMix())
				fac := reg.fac(seed, n)

				fresh, err := fac(len(devices))
				if err != nil {
					t.Fatal(err)
				}
				want := RunWith(fresh, devices, reg.run)
				wantDig := reportDigest(want)
				fresh.Close()

				world, err := fac(len(devices))
				if err != nil {
					t.Fatal(err)
				}
				defer world.Close()
				if err := world.Checkpoint(); err != nil {
					t.Fatalf("Checkpoint: %v", err)
				}
				for cycle := 1; cycle <= 2; cycle++ {
					rep := RunWith(world, devices, reg.run)
					if dig := reportDigest(rep); dig != wantDig {
						t.Fatalf("cycle %d: pooled-world digest %s != fresh-build %s", cycle, dig, wantDig)
					}
					assertReportsMatch(t, want, rep)
					if err := world.Reset(); err != nil {
						t.Fatalf("cycle %d Reset: %v", cycle, err)
					}
				}
				// And once more after the final Reset: the world must
				// still be exactly at its post-Build state.
				rep := RunWith(world, devices, reg.run)
				if dig := reportDigest(rep); dig != wantDig {
					t.Fatalf("post-final-reset digest %s != fresh-build %s", dig, wantDig)
				}
			})
		}
	}
}

// TestWorldPoolReuse pins the pool lifecycle: the first sharded run
// builds K worlds, the second run with the same pool builds none, every
// run produces the legacy serial report exactly, and its merged query
// logs hold the unpooled sharded run's questions one by one (a report
// whose logs still aliased a reused world would see the next shard's
// queries).
func TestWorldPoolReuse(t *testing.T) {
	const n = 12
	const seed = int64(2)
	devices := Population(seed, n, DefaultMix())
	spec := testbed.ScaleTopology(testbed.DefaultOptions(), n)

	world, err := testbed.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := RunWith(world, devices, RunOptions{})
	world.Close()

	builds := 0
	counted := func(int) (*testbed.Testbed, error) {
		builds++
		return testbed.Build(spec)
	}
	opt := ShardOptions{Shards: 4, Workers: 1, Seed: seed}
	// Each shard world caches its own answers, so its query logs differ
	// from the serial world's; the unpooled sharded run is the baseline.
	unpooled, err := RunShardedSized(counted, devices, opt)
	if err != nil {
		t.Fatal(err)
	}
	builds = 0

	pool := NewWorldPool()
	defer pool.Close()
	opt.Pool = pool
	for run := 1; run <= 3; run++ {
		rep, err := RunShardedSized(counted, devices, opt)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		assertReportsMatch(t, want, rep)
		assertLogsMatch(t, fmt.Sprintf("run %d PoisonLog", run), unpooled.PoisonLog, rep.PoisonLog)
		assertLogsMatch(t, fmt.Sprintf("run %d HealthyLog", run), unpooled.HealthyLog, rep.HealthyLog)
		// All four shards host n/4 = 3 devices, so they share one pool
		// key; with one worker the first run builds once and reuses.
		if run == 1 && builds == 0 {
			t.Fatal("first run built no worlds")
		}
	}
	if builds > 4 {
		t.Errorf("3 pooled runs built %d worlds (expected at most one per shard slot)", builds)
	}
}

// assertLogsMatch requires two query logs to hold the same questions in
// the same order.
func assertLogsMatch(t *testing.T, what string, want, got *dns.QueryLog) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: %d questions, want %d", what, got.Len(), want.Len())
	}
	for i, q := range want.Queries {
		if got.Queries[i] != q {
			t.Fatalf("%s[%d] = %+v, want %+v", what, i, got.Queries[i], q)
		}
	}
}

// TestWorldPoolFabricReuse runs the fabric engine twice through one
// pool: the second run must reuse every subtree world and still match
// the serial report. A serial run checks its one world out under key 0,
// so a world pre-warmed there from the full topology is the one it runs
// on and parks again.
func TestWorldPoolFabricReuse(t *testing.T) {
	spec := testbed.FabricTopology(testbed.DefaultOptions(), 4, 4)
	opt := FabricOptions{Seed: 1, ActorsPerDomain: 2}
	want, err := RunFabric(spec, opt)
	if err != nil {
		t.Fatal(err)
	}

	pool := NewWorldPool()
	defer pool.Close()
	opt.Shards = 2
	opt.Pool = pool
	for run := 1; run <= 2; run++ {
		rep, err := RunFabric(spec, opt)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		assertReportsMatch(t, want, rep)
	}

	serialPool := NewWorldPool()
	defer serialPool.Close()
	warm, err := serialPool.Get(0, func() (*testbed.Testbed, error) { return testbed.Build(spec) })
	if err != nil {
		t.Fatal(err)
	}
	checkpointed := warm.Net.Clock.Now()
	serialPool.Put(0, warm)
	opt.Shards = 1
	opt.Pool = serialPool
	rep, err := RunFabric(spec, opt)
	if err != nil {
		t.Fatalf("serial pooled run: %v", err)
	}
	assertReportsMatch(t, want, rep)
	if !warm.Net.Clock.Now().After(checkpointed) {
		t.Error("serial pooled run did not run on the pre-warmed world")
	}
	got, err := serialPool.Get(0, func() (*testbed.Testbed, error) {
		t.Fatal("rebuilt")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != warm {
		t.Error("serial pooled run did not park the pre-warmed world under key 0")
	}
	serialPool.Put(0, got)
}

// TestWorldPoolClose pins the teardown contract: Close tears down idle
// worlds but leaves the pool usable (a later Get builds fresh).
func TestWorldPoolClose(t *testing.T) {
	spec := testbed.ScaleTopology(testbed.DefaultOptions(), 4)
	pool := NewWorldPool()
	builds := 0
	build := func() (*testbed.Testbed, error) {
		builds++
		return testbed.Build(spec)
	}
	tb, err := pool.Get("k", build)
	if err != nil {
		t.Fatal(err)
	}
	pool.Put("k", tb)
	pool.Close()
	tb2, err := pool.Get("k", build)
	if err != nil {
		t.Fatal(err)
	}
	if builds != 2 {
		t.Errorf("Get after Close built %d worlds total, want 2 (idle world was torn down)", builds)
	}
	pool.Put("k", tb2)
	pool.Close()
}

// TestSweepSinksMatchLegacy pins Sweep, which discards devices and
// drops query logs, to the legacy retained runs: for the chaos loss ×
// churn grid and a pathology grid with stateful cells, every cell's
// report with its devices rebuilt from that cell's streamed rows equals
// a fresh retained RunShardedSized of the same cell.
func TestSweepSinksMatchLegacy(t *testing.T) {
	for _, tc := range []struct {
		name string
		grid Grid
	}{
		{"chaos", Grid{Seed: 1, Populations: []int{8}, Shards: []int{2},
			LossLevels: []float64{0, 0.10}, RebootLevels: []int{0, 1}}},
		{"pathology", Grid{Seed: 1, Populations: []int{8}, Shards: []int{2},
			Pathologies: []string{pathology.None, "dns64-flapping", "nat64-port-exhaustion"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.grid
			var sinks []*collectSink
			cells, err := Sweep(g, func(Cell) RowSink {
				s := &collectSink{}
				sinks = append(sinks, s)
				return s
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(sinks) != len(cells) {
				t.Fatalf("%d sinks for %d cells", len(sinks), len(cells))
			}
			n := g.Populations[0]
			devices := Population(g.Seed, n, DefaultMix())
			lossIndex := map[float64]int{}
			for i, loss := range orDefault(g.LossLevels, 0) {
				lossIndex[loss] = i
			}
			for i, c := range cells {
				if len(c.Report.Devices) != 0 {
					t.Fatalf("%s: sweep retained %d devices", c.Name(), len(c.Report.Devices))
				}
				if len(sinks[i].rows) != n {
					t.Fatalf("%s: streamed %d rows, want %d", c.Name(), len(sinks[i].rows), n)
				}
				fac := pathology.FactorySized(ChaosSpec(g.Seed, n, lossIndex[c.Loss], c.Loss), c.Pathology)
				legacy, err := RunShardedSized(fac, devices, ShardOptions{
					Shards: c.Shards, Seed: g.Seed, Run: RunOptions{RebootsPerDevice: c.Reboots},
				})
				if err != nil {
					t.Fatal(err)
				}
				legacy.PoisonLog, legacy.HealthyLog = nil, nil
				streamed := *c.Report
				streamed.Devices = reconstructDevices(sinks[i].rows)
				if reportDigest(legacy) != reportDigest(&streamed) {
					t.Errorf("%s: swept report diverged from the legacy run:\nswept  %+v\nlegacy %+v", c.Name(), streamed, *legacy)
				}
			}
		})
	}
}
