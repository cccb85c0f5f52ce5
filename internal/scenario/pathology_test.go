package scenario

import (
	"fmt"
	"testing"

	"repro/internal/pathology"
	"repro/internal/testbed"
)

// TestPathologyShardedMatchesSerial is the pathology shard-equality
// property test: for seeds 1..5 and K ∈ {2, 8}, a population run under
// an active pathology produces the same merged report sharded as it
// does serially. Pathologies are stateless world-level mutations (every
// shard world gets an identical install), so a device's outcome stays a
// pure function of its spec — the same contract the chaos and fabric
// lanes pin. The pathology rotates with the seed so every failure mode
// gets sharded coverage. The stateless pathologies carry no Budget, so
// the device count the sized factory receives changes nothing here.
func TestPathologyShardedMatchesSerial(t *testing.T) {
	const n = 12
	names := pathology.Names()[1:] // skip "none": the baseline is TestChaosZeroImpairmentIsLegacy's job
	for seed := int64(1); seed <= 5; seed++ {
		name := names[int(seed-1)%len(names)]
		devices := Population(seed, n, DefaultMix())
		fac := pathology.FactorySized(testbed.ScaleTopology(testbed.DefaultOptions(), n), name)

		world, err := fac(n)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		serial := RunWith(world, devices, RunOptions{})
		world.Close()

		for _, k := range []int{2, 8} {
			t.Run(fmt.Sprintf("seed%d/k%d/%s", seed, k, name), func(t *testing.T) {
				sharded, err := RunShardedSized(fac, devices, ShardOptions{Shards: k, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				assertReportsMatch(t, serial, sharded)
			})
		}
	}
}

// TestPathologySweepSmoke runs stateless pathologies through Sweep,
// serial and sharded: the K=2 cells match their K=1 twins, and the
// checksum row degrades internet reachability below the baseline,
// which itself stays within the population.
func TestPathologySweepSmoke(t *testing.T) {
	const n = 8
	cells := checkSweep(t, Grid{Seed: 1, Populations: []int{n}, Shards: []int{1, 2},
		Pathologies: []string{pathology.None, "nat64-checksum-corruption", "dns-v4-interference"}})
	if len(cells) != 6 {
		t.Fatalf("cells = %d, want 6", len(cells))
	}
	base, checksum := cells[0], cells[2]
	if base.Pathology != pathology.None || checksum.Pathology != "nat64-checksum-corruption" || checksum.Shards != 1 {
		t.Fatalf("cells 0 and 2 are %s and %s, want the serial baseline and checksum cells", base.Name(), checksum.Name())
	}
	if base.Report.InternetOK > n {
		t.Errorf("baseline internet %d exceeds population %d", base.Report.InternetOK, n)
	}
	if checksum.Report.InternetOK >= base.Report.InternetOK {
		t.Errorf("checksum corruption did not degrade internet: base=%d pathological=%d",
			base.Report.InternetOK, checksum.Report.InternetOK)
	}
}
