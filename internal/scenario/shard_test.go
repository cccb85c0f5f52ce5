package scenario

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/profiles"
	"repro/internal/testbed"
)

func TestPopulationDegenerateMixes(t *testing.T) {
	cases := []struct {
		name string
		mix  []MixEntry
	}{
		{"empty mix", nil},
		{"all zero weights", []MixEntry{{Profile: profiles.MacOS(), Weight: 0}}},
		{"negative total", []MixEntry{
			{Profile: profiles.MacOS(), Weight: -5},
			{Profile: profiles.Linux(), Weight: -1},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Population(1, 10, tc.mix) // must not panic (rng.Intn(0))
			if got == nil || len(got) != 0 {
				t.Errorf("Population = %v, want empty non-nil slice", got)
			}
		})
	}

	// Negative-weight entries are skipped, not drawn.
	mix := []MixEntry{
		{Profile: profiles.MacOS(), Weight: -10},
		{Profile: profiles.Linux(), Weight: 1},
	}
	for _, d := range Population(7, 20, mix) {
		if d.Profile.Name != profiles.Linux().Name {
			t.Fatalf("drew profile %q from a negative-weight entry", d.Profile.Name)
		}
	}
}

func TestShardDevicesPartition(t *testing.T) {
	devices := Population(3, 25, DefaultMix())
	for _, k := range []int{1, 2, 7, 25, 40} {
		shards := ShardDevices(42, devices, k)
		wantShards := k
		if wantShards > len(devices) {
			wantShards = len(devices)
		}
		if len(shards) != wantShards {
			t.Fatalf("k=%d: got %d shards, want %d", k, len(shards), wantShards)
		}
		// Concatenation in index order reproduces the input exactly.
		var cat []DeviceSpec
		for _, s := range shards {
			cat = append(cat, s.Devices...)
		}
		if len(cat) != len(devices) {
			t.Fatalf("k=%d: partition lost devices: %d != %d", k, len(cat), len(devices))
		}
		for i := range cat {
			if cat[i].Name != devices[i].Name {
				t.Fatalf("k=%d: device %d reordered: %s != %s", k, i, cat[i].Name, devices[i].Name)
			}
		}
		// Derived seeds are deterministic and distinct per shard.
		again := ShardDevices(42, devices, k)
		seen := map[int64]bool{}
		for i := range shards {
			if shards[i].Seed != again[i].Seed {
				t.Fatalf("k=%d shard %d: seed not deterministic", k, i)
			}
			if seen[shards[i].Seed] {
				t.Fatalf("k=%d shard %d: duplicate derived seed", k, i)
			}
			seen[shards[i].Seed] = true
		}
	}
}

// sized is the world factory of tests that shard a fixed topology:
// every world is a fresh testbed.Build of spec, whatever its device
// count.
func sized(spec testbed.Topology) SizedWorldFactory {
	return func(int) (*testbed.Testbed, error) { return testbed.Build(spec) }
}

// assertReportsMatch compares the aggregate fields RunShardedSized promises
// to reproduce, plus the per-device outcomes in order. HealthyQueries
// is deliberately absent: the healthy resolver sits behind a per-world
// cache, so its dedup depends on which devices share a world.
func assertReportsMatch(t *testing.T, serial, sharded *Report) {
	t.Helper()
	type agg struct {
		name         string
		serial, shrd int
	}
	for _, a := range []agg{
		{"Joined", serial.Joined, sharded.Joined},
		{"Informed", serial.Informed, sharded.Informed},
		{"InternetOK", serial.InternetOK, sharded.InternetOK},
		{"ReportedSSIDClients", serial.ReportedSSIDClients, sharded.ReportedSSIDClients},
		{"TrueIPv6Only", serial.TrueIPv6Only, sharded.TrueIPv6Only},
		{"Overcount", serial.Overcount, sharded.Overcount},
		{"NAT44LogEntries", serial.NAT44LogEntries, sharded.NAT44LogEntries},
		{"NAT64Sessions", serial.NAT64Sessions, sharded.NAT64Sessions},
		{"PoisonedQueries", serial.PoisonedQueries, sharded.PoisonedQueries},
	} {
		if a.serial != a.shrd {
			t.Errorf("%s: serial=%d sharded=%d", a.name, a.serial, a.shrd)
		}
	}
	for class, n := range serial.Classes {
		if sharded.Classes[class] != n {
			t.Errorf("Classes[%s]: serial=%d sharded=%d", class, n, sharded.Classes[class])
		}
	}
	for class, n := range sharded.Classes {
		if _, ok := serial.Classes[class]; !ok && n != 0 {
			t.Errorf("Classes[%s]: sharded-only class with %d devices", class, n)
		}
	}
	if len(serial.Devices) != len(sharded.Devices) {
		t.Fatalf("device count: serial=%d sharded=%d", len(serial.Devices), len(sharded.Devices))
	}
	for i := range serial.Devices {
		s, p := serial.Devices[i], sharded.Devices[i]
		if s.Spec.Name != p.Spec.Name || s.Class != p.Class ||
			s.Informed != p.Informed || s.Internet != p.Internet || s.UsedIPv6 != p.UsedIPv6 {
			t.Errorf("device %d (%s): serial={%s %v %v %v} sharded={%s %v %v %v}",
				i, s.Spec.Name,
				s.Class, s.Informed, s.Internet, s.UsedIPv6,
				p.Class, p.Informed, p.Internet, p.UsedIPv6)
		}
		if s.Churned != p.Churned || s.Reconverged != p.Reconverged || s.ConvergeTime != p.ConvergeTime {
			t.Errorf("device %d (%s) churn: serial={%v %v %v} sharded={%v %v %v}",
				i, s.Spec.Name,
				s.Churned, s.Reconverged, s.ConvergeTime,
				p.Churned, p.Reconverged, p.ConvergeTime)
		}
	}
	if len(serial.Convergence) != len(sharded.Convergence) {
		t.Errorf("convergence classes: serial=%d sharded=%d",
			len(serial.Convergence), len(sharded.Convergence))
	}
	for cls, sc := range serial.Convergence {
		if pc := sharded.Convergence[cls]; sc != pc {
			t.Errorf("Convergence[%s]: serial=%+v sharded=%+v", cls, sc, pc)
		}
	}
	if sharded.PoisonLog.Len() != sharded.PoisonedQueries {
		t.Errorf("merged poison log %d entries, counter says %d",
			sharded.PoisonLog.Len(), sharded.PoisonedQueries)
	}
}

// TestShardedMatchesSerial is the shard-merge property test the issue
// asks for: for seeds 1..5 and K ∈ {1, 2, 8}, RunSharded over a
// position-independent (scale) topology produces the same aggregate
// report a serial run does.
func TestShardedMatchesSerial(t *testing.T) {
	const n = 24
	for seed := int64(1); seed <= 5; seed++ {
		devices := Population(seed, n, DefaultMix())
		spec := testbed.ScaleTopology(testbed.DefaultOptions(), n)

		world, err := testbed.Build(spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		serial := RunWith(world, devices, RunOptions{})
		world.Close()

		for _, k := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("seed%d/k%d", seed, k), func(t *testing.T) {
				sharded, err := RunShardedSized(sized(spec), devices, ShardOptions{Shards: k, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				if len(sharded.Shards) == 0 || len(sharded.Shards) > k {
					t.Errorf("shard metadata: %d entries for k=%d", len(sharded.Shards), k)
				}
				assertReportsMatch(t, serial, sharded)
			})
		}
	}
}

// TestShardedMatchesSerialMultiCore pins the multi-core half of the
// shard property: with GOMAXPROCS forced above 1 and a worker pool
// genuinely running shards on concurrent goroutines, the merged report
// is still bit-for-bit equal to the serial run. Worlds share no state
// (own fabric, clock, MAC allocator, PRNG streams), so scheduling
// interleavings must be unobservable in the result.
func TestShardedMatchesSerialMultiCore(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	const n = 24
	const seed = int64(3)
	devices := Population(seed, n, DefaultMix())
	spec := testbed.ScaleTopology(testbed.DefaultOptions(), n)

	world, err := testbed.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	serial := RunWith(world, devices, RunOptions{})
	world.Close()

	for run := 0; run < 3; run++ { // repeat to vary goroutine interleaving
		sharded, err := RunShardedSized(sized(spec), devices, ShardOptions{Shards: 8, Workers: 4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		assertReportsMatch(t, serial, sharded)
	}
}

func TestRunShardedErrors(t *testing.T) {
	devices := Population(1, 4, DefaultMix())
	if _, err := RunShardedSized(nil, devices, ShardOptions{Shards: 2}); err == nil {
		t.Error("nil factory accepted")
	}
	bad := func(int) (*testbed.Testbed, error) {
		spec := testbed.DefaultTopology(testbed.DefaultOptions())
		spec.GatewayLANv4 = spec.Gateway.WANv4 // outside the LAN: Build must reject
		return testbed.Build(spec)
	}
	if _, err := RunShardedSized(bad, devices, ShardOptions{Shards: 2}); err == nil {
		t.Error("factory failures not surfaced")
	}
}

func TestMergeReportsAssociative(t *testing.T) {
	devices := Population(2, 12, DefaultMix())
	spec := testbed.ScaleTopology(testbed.DefaultOptions(), 12)
	shards := ShardDevices(2, devices, 3)
	parts := make([]*Report, len(shards))
	for i, s := range shards {
		tb, err := testbed.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = RunWith(tb, s.Devices, RunOptions{})
		tb.Close()
	}
	leftFold := MergeReports(MergeReports(parts[0], parts[1]), parts[2])
	rightFold := MergeReports(parts[0], MergeReports(parts[1], parts[2]))
	flat := MergeReports(parts...)
	assertReportsMatch(t, flat, leftFold)
	assertReportsMatch(t, flat, rightFold)
}
