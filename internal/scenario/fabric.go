package scenario

import (
	"errors"
	"fmt"

	"repro/internal/hoststack"
	"repro/internal/testbed"
)

// This file partitions fabric runs for the execution engine (shard.go).
// On a hierarchical topology (testbed.FabricTopology) a world is not an
// arbitrary slice of the device list but a subtree of the fabric: a
// contiguous group of access switches, built as its own world with
// testbed.SubtreeTopology so every kept switch retains its global
// Domain — and with it its DHCP sub-pools, its device names and its
// profile stream. Per-domain state is therefore a pure function of
// (seed, domain), which is what makes the serial run (one group of
// every switch) and any subtree partition produce identical reports,
// impairment included.

// FabricOptions parameterizes RunFabric.
type FabricOptions struct {
	// Seed feeds each domain's profile stream through deriveSeed(Seed,
	// Domain), so a domain draws the same devices in every world that
	// contains it.
	Seed int64
	// Mix weights the per-domain populations (default DefaultMix).
	Mix []MixEntry
	// ActorsPerDomain is how many of each access switch's registered
	// clients actually run the workload (<= 0 or more than the switch
	// has registered: all of them). Registered-but-idle rows stay parked
	// ~31-byte table entries, which is how million-client worlds fit in
	// one process while only a sample acts.
	ActorsPerDomain int
	// Shards is how many subtree worlds the access switches split
	// across (default 1: one serial world holding every switch).
	Shards int
	// Workers bounds concurrent subtree worlds (default GOMAXPROCS).
	Workers int
	// Run carries the per-device chaos options into every world.
	// Run.Sink, when set, receives every subtree's rows through one
	// serialized sink, stamped with the subtree shard index.
	Run RunOptions
	// Pool, when non-nil, acquires subtree worlds from the world-reuse
	// pool (keyed by subtree index) instead of building fresh; repeated
	// fabric runs over the same topology amortize construction through
	// the testbed Checkpoint/Reset lifecycle.
	Pool *WorldPool
}

// FabricDevices draws access switch as's acting population: actors
// devices from the mix, named d<domain>-dev<i>-<profile>. The draw
// depends only on (seed, as.Domain), never on which world the switch is
// built into.
func FabricDevices(seed int64, as testbed.AccessSwitchSpec, actors int, mix []MixEntry) []DeviceSpec {
	if actors <= 0 || actors > as.Clients {
		actors = as.Clients
	}
	devs := Population(deriveSeed(seed, as.Domain), actors, mix)
	for i := range devs {
		devs[i].Name = fmt.Sprintf("d%03d-%s", as.Domain, devs[i].Name)
	}
	return devs
}

// resolveActors clamps the per-domain actor count to the switch's
// registered population.
func resolveActors(opt FabricOptions, as testbed.AccessSwitchSpec) int {
	if opt.ActorsPerDomain <= 0 || opt.ActorsPerDomain > as.Clients {
		return as.Clients
	}
	return opt.ActorsPerDomain
}

// runFabricWorld runs the acting population of every access switch in
// tb's world, one device at a time: materialize the row, run the trial,
// park the row. Parking returns the device to its table row, so the
// world never holds more than one full client Host at once.
func runFabricWorld(tb *testbed.Testbed, opt FabricOptions, ro RunOptions) *Report {
	r := newTrialRunner(tb, ro)
	fb := tb.Fabric
	for i, as := range tb.Spec.Fabric.Access {
		devs := FabricDevices(opt.Seed, as, opt.ActorsPerDomain, opt.Mix)
		lo, _ := fb.Rows(i)
		for j, spec := range devs {
			row := lo + j
			spec := spec
			r.runTrial(spec, func() *hoststack.Host {
				return fb.Materialize(row, spec.Name, spec.Profile)
			})
			fb.Park(row)
		}
	}
	return r.finish()
}

// RunFabric executes the acting population of a fabric topology,
// partitioned into opt.Shards contiguous access-switch groups (one
// group of every switch by default), each built as an independent
// subtree world and run by the execution engine. Pooled worlds are
// keyed by group index, so a serial run checks out key 0. On the
// position-independent FabricTopology the merged report equals the
// serial run's exactly — the same contract RunShardedSized has on flat
// worlds, with the partition following the fabric's own structure.
func RunFabric(full testbed.Topology, opt FabricOptions) (*Report, error) {
	if !full.Fabric.Enabled() {
		return nil, errors.New("scenario: RunFabric needs a fabric topology")
	}
	if opt.Mix == nil {
		opt.Mix = DefaultMix()
	}
	groups := partition(len(full.Fabric.Access), opt.Shards)
	worlds := make([]world, len(groups))
	for i, g := range groups {
		keep := make([]int, 0, g.hi-g.lo)
		actors := 0
		for sw := g.lo; sw < g.hi; sw++ {
			keep = append(keep, sw)
			actors += resolveActors(opt, full.Fabric.Access[sw])
		}
		worlds[i] = world{
			key:   i,
			info:  ShardInfo{Index: i, Seed: deriveSeed(opt.Seed, i), Devices: actors},
			build: func() (*testbed.Testbed, error) { return testbed.Build(testbed.SubtreeTopology(full, keep)) },
			run: func(tb *testbed.Testbed, ro RunOptions) *Report {
				return runFabricWorld(tb, opt, ro)
			},
		}
	}
	return runWorlds(worlds, opt.Workers, opt.Pool, opt.Run)
}
