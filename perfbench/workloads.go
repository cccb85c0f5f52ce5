package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/testbed"
)

// sizes are the populations a benchmark invocation runs. fullSize is
// the benchmark; the smoke tests run the same workloads at smokeSize.
type sizes struct {
	FlatClients      int
	FabricAccess     int
	FabricClientsPer int
	TrafficDevices   int
}

var (
	fullSize  = sizes{FlatClients: 1000, FabricAccess: 1000, FabricClientsPer: 1000, TrafficDevices: 256}
	smokeSize = sizes{FlatClients: 24, FabricAccess: 12, FabricClientsPer: 40, TrafficDevices: 16}
)

const (
	// fabricActors is how many registered clients of each access switch
	// run a trial: one, so a pass touches every domain once.
	fabricActors = 1
	// trafficShards worlds split the traffic population; trafficWorkers
	// run at once. Every workload is closed loop with one trial at a
	// time per world, so at most trafficWorkers trials run together.
	trafficShards  = 4
	trafficWorkers = 2
)

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"flat-floor", "fabric-million", "traffic-churn"}

// workload is one benchmark shape.
type workload interface {
	// setup generates the inputs from the seed and builds (and
	// checkpoints) every world the first pass needs, releasing whatever
	// an earlier setup held.
	setup(b *bench, parent int) error
	// prepare readies a world for the next pass, outside its timing.
	prepare(b *bench, parent int) error
	// pass runs one complete scenario, streaming rows into sink.
	pass(b *bench, sink scenario.RowSink) (*scenario.Report, error)
	// afterPass runs after each pass, outside its timing. Traced runs
	// time a warm checkout of the pooled worlds the pass used here.
	afterPass(b *bench, parent int) error
	// held returns the world whose counters one pass moves, or nil when
	// the passes run on worlds the benchmark cannot read.
	held() *testbed.Testbed
	// oracle runs the same inputs on freshly built worlds, serially and
	// without a pool.
	oracle(sink scenario.RowSink) (*scenario.Report, error)
	// names are the generated device names, one per trial of a pass.
	names() []string
	// topology is the spec of one world the workload builds.
	topology() testbed.Topology
	// poolGets is how many pool checkouts one pass makes (0: no pool),
	// and coldBuilds how many of them have built a world so far.
	poolGets() int
	coldBuilds() int64
	close()
}

// newWorkload returns the named workload at size sz.
func newWorkload(name string, seed int64, sz sizes) (workload, error) {
	switch name {
	case "flat-floor":
		return &flatFloor{seed: seed, n: sz.FlatClients}, nil
	case "fabric-million":
		return &fabricMillion{seed: seed, access: sz.FabricAccess, per: sz.FabricClientsPer}, nil
	case "traffic-churn":
		return &trafficChurn{seed: seed, n: sz.TrafficDevices}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

func deviceNames(devs []scenario.DeviceSpec) []string {
	out := make([]string, len(devs))
	for i, d := range devs {
		out[i] = d.Name
	}
	return out
}

// flatFloor is the 1000-client serial run on one flat broadcast domain:
// every join widens the domain, so host receive and flood fan-out do
// most of the work. Each pass gets a freshly built world.
type flatFloor struct {
	seed  int64
	n     int
	spec  testbed.Topology
	devs  []scenario.DeviceSpec
	ready *testbed.Testbed
}

func (w *flatFloor) setup(b *bench, parent int) error {
	w.close()
	w.devs = scenario.Population(w.seed, w.n, scenario.DefaultMix())
	w.spec = testbed.ScaleTopology(testbed.DefaultOptions(), w.n)
	return w.prepare(b, parent)
}

func (w *flatFloor) prepare(b *bench, parent int) error {
	if w.ready != nil {
		return nil
	}
	tb, err := b.build(w.spec, parent)
	if err != nil {
		return err
	}
	if err := b.checkpoint(tb, parent); err != nil {
		tb.Close()
		return err
	}
	w.ready = tb
	return nil
}

func (w *flatFloor) pass(_ *bench, sink scenario.RowSink) (*scenario.Report, error) {
	return scenario.RunWith(w.ready, w.devs, scenario.RunOptions{Sink: sink, DiscardDevices: true}), nil
}

// afterPass drops the world the pass used: flat passes never reuse one.
func (w *flatFloor) afterPass(*bench, int) error {
	w.close()
	return nil
}

func (w *flatFloor) held() *testbed.Testbed { return w.ready }

func (w *flatFloor) oracle(sink scenario.RowSink) (*scenario.Report, error) {
	tb, err := testbed.Build(w.spec)
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	return scenario.RunWith(tb, w.devs, scenario.RunOptions{Sink: sink, DiscardDevices: true}), nil
}

func (w *flatFloor) names() []string            { return deviceNames(w.devs) }
func (w *flatFloor) topology() testbed.Topology { return w.spec }
func (w *flatFloor) poolGets() int              { return 0 }
func (w *flatFloor) coldBuilds() int64          { return 0 }

func (w *flatFloor) close() {
	if w.ready != nil {
		w.ready.Close()
		w.ready = nil
	}
}

// fabricMillion is the million-client fabric: 1000 access switches of
// 1000 registered clients, one acting client per switch, run serially
// through a pre-warmed pool. The world build lands in setup; each pass
// pays the reset, per-trial translator scans and GC over a large heap.
type fabricMillion struct {
	seed        int64
	access, per int
	spec        testbed.Topology
	pool        *scenario.WorldPool
	world       *testbed.Testbed
	// checkpointed is the world's virtual time at its checkpoint: a
	// pass that ran on it leaves the clock past this instant.
	checkpointed time.Time
}

func (w *fabricMillion) options(pool *scenario.WorldPool, sink scenario.RowSink) scenario.FabricOptions {
	return scenario.FabricOptions{
		Seed:            w.seed,
		ActorsPerDomain: fabricActors,
		Pool:            pool,
		Run:             scenario.RunOptions{Sink: sink, DiscardDevices: true},
	}
}

func (w *fabricMillion) setup(b *bench, parent int) error {
	w.close()
	w.spec = testbed.FabricTopology(testbed.DefaultOptions(), w.access, w.per)
	w.pool = scenario.NewWorldPool()
	tb, err := b.poolGet(w.pool, 0, w.spec, parent)
	if err != nil {
		return err
	}
	w.world = tb
	w.checkpointed = tb.Net.Clock.Now()
	b.poolPut(w.pool, 0, tb, parent)
	return nil
}

func (w *fabricMillion) prepare(*bench, int) error { return nil }

func (w *fabricMillion) pass(_ *bench, sink scenario.RowSink) (*scenario.Report, error) {
	return scenario.RunFabric(w.spec, w.options(w.pool, sink))
}

func (w *fabricMillion) afterPass(b *bench, parent int) error {
	if b.tr == nil {
		return nil
	}
	// The counters read from the held world are this pass's only if
	// the pool handed the pre-warmed world to the run.
	if !w.world.Net.Clock.Now().After(w.checkpointed) {
		return fmt.Errorf("fabric pass did not run on the pre-warmed world")
	}
	tb, err := b.poolGet(w.pool, 0, w.spec, parent)
	if err != nil {
		return err
	}
	b.poolPut(w.pool, 0, tb, parent)
	if tb != w.world {
		return fmt.Errorf("pool replaced the pre-warmed fabric world")
	}
	return nil
}

func (w *fabricMillion) held() *testbed.Testbed { return w.world }

func (w *fabricMillion) oracle(sink scenario.RowSink) (*scenario.Report, error) {
	return scenario.RunFabric(w.spec, w.options(nil, sink))
}

func (w *fabricMillion) names() []string {
	var out []string
	for _, as := range w.spec.Fabric.Access {
		out = append(out, deviceNames(scenario.FabricDevices(w.seed, as, fabricActors, scenario.DefaultMix()))...)
	}
	return out
}

func (w *fabricMillion) topology() testbed.Topology { return w.spec }
func (w *fabricMillion) poolGets() int              { return 1 }

// coldBuilds is 0: a rebuild inside RunFabric is not observable from
// here, but it would replace the pre-warmed world, which the traced
// run's afterPass detects and reports as an error.
func (w *fabricMillion) coldBuilds() int64 { return 0 }

func (w *fabricMillion) close() {
	if w.pool != nil {
		w.pool.Close()
		w.pool = nil
	}
	w.world = nil
}

// trafficChurn is heavy traffic on clean links: 256 devices in 4 pooled
// shard worlds run by 2 workers, each device streaming paced flows
// through the translators, abandoning some, then riding out a gateway
// reboot.
type trafficChurn struct {
	seed int64
	n    int
	spec testbed.Topology
	devs []scenario.DeviceSpec
	pool *scenario.WorldPool
	// cold counts pool misses during passes (the factory only runs then).
	cold atomic.Int64
	// keys are the distinct shard sizes, the pool's keys.
	keys []int
}

func (w *trafficChurn) options(sink scenario.RowSink) scenario.RunOptions {
	return scenario.RunOptions{
		RebootsPerDevice: 1,
		Traffic: &scenario.TrafficOptions{
			FlowsPerDevice: 8,
			FlowBytes:      12 << 10,
			Pace:           time.Millisecond,
			ChurnFlows:     2,
		},
		Sink:           sink,
		DiscardDevices: true,
	}
}

func (w *trafficChurn) shards() []scenario.Shard {
	return scenario.ShardDevices(w.seed, w.devs, trafficShards)
}

func (w *trafficChurn) setup(b *bench, parent int) error {
	w.close()
	w.devs = scenario.Population(w.seed, w.n, scenario.DefaultMix())
	w.spec = testbed.ScaleTopology(testbed.DefaultOptions(), w.n)
	w.pool = scenario.NewWorldPool()
	count := map[int]int{}
	w.keys = w.keys[:0]
	for _, s := range w.shards() {
		if count[len(s.Devices)] == 0 {
			w.keys = append(w.keys, len(s.Devices))
		}
		count[len(s.Devices)]++
	}
	// Warm as many worlds per key as workers can hold at once, so
	// every checkout during a pass is a reset.
	for _, k := range w.keys {
		if err := w.cycle(b, k, min(count[k], trafficWorkers), parent); err != nil {
			return err
		}
	}
	return nil
}

// cycle checks n worlds of key k out of the pool and back in.
func (w *trafficChurn) cycle(b *bench, k, n, parent int) error {
	var out []*testbed.Testbed
	defer func() {
		for _, tb := range out {
			b.poolPut(w.pool, k, tb, parent)
		}
	}()
	for i := 0; i < n; i++ {
		tb, err := b.poolGet(w.pool, k, w.spec, parent)
		if err != nil {
			return err
		}
		out = append(out, tb)
	}
	return nil
}

func (w *trafficChurn) prepare(*bench, int) error { return nil }

func (w *trafficChurn) pass(_ *bench, sink scenario.RowSink) (*scenario.Report, error) {
	factory := func(int) (*testbed.Testbed, error) {
		w.cold.Add(1)
		return testbed.Build(w.spec)
	}
	return scenario.RunShardedSized(factory, w.devs, scenario.ShardOptions{
		Shards:  trafficShards,
		Workers: trafficWorkers,
		Seed:    w.seed,
		Run:     w.options(sink),
		Pool:    w.pool,
	})
}

func (w *trafficChurn) afterPass(b *bench, parent int) error {
	if b.tr == nil {
		return nil
	}
	for _, k := range w.keys {
		if err := w.cycle(b, k, trafficWorkers, parent); err != nil {
			return err
		}
	}
	return nil
}

func (w *trafficChurn) held() *testbed.Testbed { return nil }

func (w *trafficChurn) oracle(sink scenario.RowSink) (*scenario.Report, error) {
	tb, err := testbed.Build(w.spec)
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	return scenario.RunWith(tb, w.devs, w.options(sink)), nil
}

// mirror replays each shard of a pass serially on a world the benchmark
// builds and holds, which is where the traced run reads the netsim and
// DHCP counters of the pooled shard worlds. The merged report must
// match the oracle, which shows the replay did the passes' work.
func (w *trafficChurn) mirror(sink scenario.RowSink) (worldCounters, *scenario.Report, error) {
	var sum worldCounters
	var reps []*scenario.Report
	for _, s := range w.shards() {
		tb, err := testbed.Build(w.spec)
		if err != nil {
			return sum, nil, err
		}
		before := readCounters(tb)
		reps = append(reps, scenario.RunWith(tb, s.Devices, w.options(sink)))
		sum.add(readCounters(tb).since(before))
		tb.Close()
	}
	return sum, scenario.MergeReports(reps...), nil
}

func (w *trafficChurn) names() []string            { return deviceNames(w.devs) }
func (w *trafficChurn) topology() testbed.Topology { return w.spec }
func (w *trafficChurn) poolGets() int              { return len(w.shards()) }
func (w *trafficChurn) coldBuilds() int64          { return w.cold.Load() }

func (w *trafficChurn) close() {
	if w.pool != nil {
		w.pool.Close()
		w.pool = nil
	}
}

// worldCounters are the layer counters one world exposes, as a delta
// over a pass (QueuePeak and Leases are levels, not deltas); add sums
// the worlds of a sharded pass.
type worldCounters struct {
	Frames, Dropped         uint64
	PayloadsServed, Avoided uint64
	FanoutEvents, FanoutDel uint64
	RingFrames, RingBatches uint64
	QueuePeak               uint64
	Flooded, Suppressed     uint64
	NAT64Pkts, NAT64Bytes   uint64
	NAT44Pkts               uint64
	Leases                  uint64
}

// readCounters snapshots tb's netsim, switch, gateway and DHCP counters.
func readCounters(tb *testbed.Testbed) worldCounters {
	st := tb.Net.Stats()
	switches := []netsim.SwitchStats{tb.SwitchStats()}
	if tb.Fabric != nil {
		for _, s := range tb.Fabric.Switches {
			switches = append(switches, s.Stats())
		}
	}
	gw := tb.Gateway.TrafficStats()
	c := worldCounters{
		Frames:         st.FramesDelivered,
		Dropped:        st.FramesDropped,
		PayloadsServed: st.PayloadsServed,
		Avoided:        st.AllocsAvoided,
		FanoutEvents:   st.FanoutEvents,
		FanoutDel:      st.FanoutDeliveries,
		RingFrames:     st.UnicastRingFrames,
		RingBatches:    st.UnicastRingBatches,
		QueuePeak:      uint64(st.QueuePeak),
		NAT64Pkts:      gw.NAT64PktsOut + gw.NAT64PktsIn,
		NAT64Bytes:     gw.NAT64BytesOut + gw.NAT64BytesIn,
		NAT44Pkts:      gw.NAT44Pkts,
		Leases:         uint64(tb.DHCPServer.LeaseCount() + tb.Gateway.DHCP.LeaseCount()),
	}
	for _, s := range switches {
		c.Flooded += s.Flooded
		c.Suppressed += s.SuppressedEtherType + s.SuppressedGroup + s.SuppressedUnicast
	}
	return c
}

// since returns the counters accrued after before.
func (c worldCounters) since(before worldCounters) worldCounters {
	d := worldCounters{
		Frames:         c.Frames - before.Frames,
		Dropped:        c.Dropped - before.Dropped,
		PayloadsServed: c.PayloadsServed - before.PayloadsServed,
		Avoided:        c.Avoided - before.Avoided,
		FanoutEvents:   c.FanoutEvents - before.FanoutEvents,
		FanoutDel:      c.FanoutDel - before.FanoutDel,
		RingFrames:     c.RingFrames - before.RingFrames,
		RingBatches:    c.RingBatches - before.RingBatches,
		QueuePeak:      c.QueuePeak,
		Flooded:        c.Flooded - before.Flooded,
		Suppressed:     c.Suppressed - before.Suppressed,
		NAT64Pkts:      c.NAT64Pkts - before.NAT64Pkts,
		NAT64Bytes:     c.NAT64Bytes - before.NAT64Bytes,
		NAT44Pkts:      c.NAT44Pkts - before.NAT44Pkts,
		Leases:         c.Leases,
	}
	return d
}

// add accumulates another world's or pass's counters.
func (c *worldCounters) add(o worldCounters) {
	c.Frames += o.Frames
	c.Dropped += o.Dropped
	c.PayloadsServed += o.PayloadsServed
	c.Avoided += o.Avoided
	c.FanoutEvents += o.FanoutEvents
	c.FanoutDel += o.FanoutDel
	c.RingFrames += o.RingFrames
	c.RingBatches += o.RingBatches
	c.QueuePeak = max(c.QueuePeak, o.QueuePeak)
	c.Flooded += o.Flooded
	c.Suppressed += o.Suppressed
	c.NAT64Pkts += o.NAT64Pkts
	c.NAT64Bytes += o.NAT64Bytes
	c.NAT44Pkts += o.NAT44Pkts
	c.Leases += o.Leases
}
