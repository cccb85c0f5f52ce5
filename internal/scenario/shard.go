package scenario

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/dns"
	"repro/internal/metrics"
	"repro/internal/testbed"
)

// This file is the scenario package's one execution engine. A run is a
// list of independent worlds: RunShardedSized makes one per contiguous
// slice of a flat population, RunFabric (fabric.go) one per contiguous
// group of access switches. runWorlds builds or checks out each world,
// runs it inside a bounded worker pool, parks or closes it, and folds
// the per-world reports into one aggregate with an associative merge.
// Worlds are fully independent (own fabric, clock, MAC space), so the
// only cross-goroutine state is the result slots and the shared row
// sink. Beyond wall-clock parallelism there is an algorithmic win:
// broadcast-domain work (ARP, DHCP, RA flooding) is quadratic in
// clients-per-switch, so K worlds of N/K clients do ~1/K of the
// flooding a single N-client world does — the speedup holds even on
// one core.

// SizedWorldFactory builds one fresh, independent world for a shard.
// The engine passes the number of devices this particular world hosts
// (a shard's slice, or the full population in a serial run), so a
// capacity-budgeted pathology (pathology.FactorySized) can split a
// global pool pro rata and keep serial ≡ sharded intact for
// exhaustion-driven failure modes. It must be safe to call from
// multiple goroutines — which it is whenever each call returns a
// brand-new Testbed.
type SizedWorldFactory func(devices int) (*testbed.Testbed, error)

// ShardOptions parameterizes RunShardedSized.
type ShardOptions struct {
	// Shards is the number of worlds the population splits across
	// (default 1, i.e. a serial run on a fresh world).
	Shards int
	// Workers bounds how many worlds are simulated concurrently
	// (default GOMAXPROCS, never more than Shards).
	Workers int
	// Seed is the base seed per-shard seeds derive from. Use the seed
	// the population was drawn with so the whole run is reproducible
	// from one number.
	Seed int64
	// Run carries per-device chaos options into every shard's world
	// (zero value = the classic workload). Run.Sink, when set, receives
	// every shard's rows through one serialized sink, each stamped with
	// its shard index.
	Run RunOptions
	// Pool, when non-nil, acquires shard worlds from the world-reuse
	// pool (keyed by shard device count) instead of building fresh and
	// closing after: repeated runs amortize world construction through
	// the testbed Checkpoint/Reset lifecycle.
	Pool *WorldPool
}

// ShardInfo records one shard of a partitioned run.
type ShardInfo struct {
	Index   int
	Seed    int64
	Devices int
}

// Shard is one deterministic slice of the population.
type Shard struct {
	Index int
	// Seed is derived from the base seed and the shard index (splitmix64
	// mixing), giving shard-local workloads an independent, reproducible
	// randomness stream.
	Seed    int64
	Devices []DeviceSpec
}

// ShardDevices splits devices into k contiguous, near-equal shards.
// Concatenating the shards in index order reproduces the input order
// exactly, so a merged report's device list matches the serial run's.
// k is clamped to [1, len(devices)] (a shard is never empty unless the
// population is).
func ShardDevices(seed int64, devices []DeviceSpec, k int) []Shard {
	spans := partition(len(devices), k)
	shards := make([]Shard, len(spans))
	for i, sp := range spans {
		shards[i] = Shard{Index: i, Seed: deriveSeed(seed, i), Devices: devices[sp.lo:sp.hi]}
	}
	return shards
}

// span is the half-open range [lo, hi) of one partition part.
type span struct{ lo, hi int }

// partition splits n items into k contiguous, near-equal spans whose
// concatenation in index order is [0, n). k is clamped to [1, n] (to at
// least 1 when n is 0, so every span is then empty).
func partition(n, k int) []span {
	if k < 1 {
		k = 1
	}
	if n > 0 && k > n {
		k = n
	}
	spans := make([]span, k)
	for i := range spans {
		spans[i] = span{i * n / k, (i + 1) * n / k}
	}
	return spans
}

// deriveSeed mixes the base seed with a shard index through the
// splitmix64 finalizer, so adjacent shards get statistically unrelated
// seeds while staying a pure function of (seed, shard).
func deriveSeed(seed int64, shard int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(shard+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// RunShardedSized executes the population across opt.Shards worlds and
// merges the per-shard reports. Each world is built with its shard's
// own device count, which is how a pathology Budget (a NAT64 port pool
// sized to quota × devices) splits across worlds so the sharded run has
// exactly the serial run's per-client capacity. Without a pool, each
// world is torn down with Close as soon as its shard finishes. The
// partition, the per-shard seeds and each world's simulation are all
// deterministic; only the interleaving of workers varies between runs,
// and the merge is insensitive to it. On a topology where device
// outcomes are position-independent (see testbed.ScaleTopology), the
// merged report's aggregate fields equal a serial RunWith's exactly.
func RunShardedSized(factory SizedWorldFactory, devices []DeviceSpec, opt ShardOptions) (*Report, error) {
	if factory == nil {
		return nil, errors.New("scenario: RunShardedSized needs a world factory")
	}
	shards := ShardDevices(opt.Seed, devices, opt.Shards)
	worlds := make([]world, len(shards))
	for i, s := range shards {
		n := len(s.Devices)
		worlds[i] = world{
			key:   n,
			info:  ShardInfo{Index: s.Index, Seed: s.Seed, Devices: n},
			build: func() (*testbed.Testbed, error) { return factory(n) },
			run: func(tb *testbed.Testbed, ro RunOptions) *Report {
				return RunWith(tb, s.Devices, ro)
			},
		}
	}
	return runWorlds(worlds, opt.Workers, opt.Pool, opt.Run)
}

// world is one independent world of a partitioned run.
type world struct {
	// key is the WorldPool key the world is checked out under.
	key  any
	info ShardInfo
	// build assembles a fresh world (on a pool miss, or every time
	// without a pool).
	build func() (*testbed.Testbed, error)
	// run executes the world's share of the population.
	run func(*testbed.Testbed, RunOptions) *Report
}

// runWorlds runs every world inside a pool of at most workers
// goroutines (default GOMAXPROCS) and merges their reports in world
// order. With a pool, worlds are checked out under their key and parked
// after the run; without one, each is built fresh and closed. ro goes to
// every world, its Sink serialized across workers and each world's rows
// stamped with its shard index. Build errors are joined; any one fails
// the run.
func runWorlds(worlds []world, workers int, pool *WorldPool, ro RunOptions) (*Report, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(worlds) {
		workers = len(worlds)
	}
	if shared := sharedSink(ro.Sink); shared != nil {
		ro.Sink = shared
	}

	reports := make([]*Report, len(worlds))
	errs := make([]error, len(worlds))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				wd := worlds[i]
				var tb *testbed.Testbed
				var err error
				if pool != nil {
					tb, err = pool.Get(wd.key, wd.build)
				} else {
					tb, err = wd.build()
				}
				if err != nil {
					errs[i] = fmt.Errorf("scenario: shard %d: building world: %w", wd.info.Index, err)
					continue
				}
				wro := ro
				wro.rowShard = wd.info.Index
				reports[i] = wd.run(tb, wro)
				if pool != nil {
					// The report aliases the world's live query logs; the
					// next checkout's Reset rewinds them, so detach first.
					detachLogs(reports[i])
					pool.Put(wd.key, tb)
				} else {
					tb.Close()
				}
			}
		}()
	}
	for i := range worlds {
		next <- i
	}
	close(next)
	wg.Wait()

	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	rep := MergeReports(reports...)
	rep.Shards = make([]ShardInfo, len(worlds))
	for i, wd := range worlds {
		rep.Shards[i] = wd.info
	}
	return rep, nil
}

// MergeReports folds per-shard reports into one aggregate. Every
// counter merge is associative and commutative (sums and per-class
// tallies), so the result does not depend on grouping; only the order
// of Devices and the merged query logs follows the argument order.
// Overcount is recomputed from the merged counters rather than summed,
// which is equivalent (it is linear in them) and keeps the invariant
// Overcount == ReportedSSIDClients - TrueIPv6Only by construction.
// Device retention is the shards' choice, not the merge's: shards run
// with DiscardDevices contribute nothing to the merged Devices slice
// (their aggregates were folded incrementally as they streamed), and a
// merge over such reports allocates no per-device state at all.
func MergeReports(parts ...*Report) *Report {
	out := &Report{
		PoisonLog:  &dns.QueryLog{},
		HealthyLog: &dns.QueryLog{},
	}
	retained := 0
	for _, p := range parts {
		if p != nil {
			retained += len(p.Devices)
		}
	}
	if retained > 0 {
		out.Devices = make([]DeviceResult, 0, retained)
	}
	for _, p := range parts {
		if p == nil {
			continue
		}
		out.Devices = append(out.Devices, p.Devices...)
		out.Joined += p.Joined
		out.Informed += p.Informed
		out.InternetOK += p.InternetOK
		out.ReportedSSIDClients += p.ReportedSSIDClients
		out.TrueIPv6Only += p.TrueIPv6Only
		out.NAT44LogEntries += p.NAT44LogEntries
		out.NAT64Sessions += p.NAT64Sessions
		out.PoisonedQueries += p.PoisonedQueries
		out.HealthyQueries += p.HealthyQueries
		out.Classes = metrics.MergeCounts(out.Classes, p.Classes)
		if p.Profiles != nil {
			if out.Profiles == nil {
				out.Profiles = make(map[string]ProfileCount, len(p.Profiles))
			}
			for name, pc := range p.Profiles {
				m := out.Profiles[name]
				m.Devices += pc.Devices
				m.InternetOK += pc.InternetOK
				out.Profiles[name] = m
			}
		}
		if p.Convergence != nil {
			if out.Convergence == nil {
				out.Convergence = make(map[metrics.Class]ClassConvergence)
			}
			for cls, cc := range p.Convergence {
				m := out.Convergence[cls]
				m.Devices += cc.Devices
				m.Reconverged += cc.Reconverged
				m.TotalTime += cc.TotalTime
				if cc.MaxTime > m.MaxTime {
					m.MaxTime = cc.MaxTime
				}
				out.Convergence[cls] = m
			}
		}
		mergeTraffic(&out.Traffic, p.Traffic)
		out.PoisonLog.Merge(p.PoisonLog)
		out.HealthyLog.Merge(p.HealthyLog)
	}
	out.Overcount = out.ReportedSSIDClients - out.TrueIPv6Only
	return out
}
