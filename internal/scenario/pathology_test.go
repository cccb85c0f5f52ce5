package scenario

import (
	"fmt"
	"strings"
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
		fac := pathology.FactorySized(testbed.Factory{Spec: PathologySpec(n)}.Build, name)

		world, err := fac(n)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		serial := Run(world, devices)
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

// TestPathologySweepSmoke runs a reduced sweep end to end and checks
// the rendered matrix is byte-identical across repeat sweeps, sharded
// or serial.
func TestPathologySweepSmoke(t *testing.T) {
	cfg := PathologyConfig{
		Seed:        1,
		N:           8,
		Pathologies: []string{pathology.None, "nat64-checksum-corruption", "dns-v4-interference"},
		Shards:      2,
	}
	m, err := PathologySweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cells) != 3 {
		t.Fatalf("cells = %d, want 3", len(m.Cells))
	}
	out := m.String()
	if !strings.Contains(out, "pathology degradation matrix") || !strings.Contains(out, pathology.None) {
		t.Errorf("matrix rendering:\n%s", out)
	}

	// The baseline row must not lose devices: outcomes ≤ population and
	// the checksum row must degrade internet reachability below it.
	base, checksum := m.Cells[0].Report, m.Cells[1].Report
	if base.InternetOK > cfg.N {
		t.Errorf("baseline internet %d exceeds population %d", base.InternetOK, cfg.N)
	}
	if checksum.InternetOK >= base.InternetOK {
		t.Errorf("checksum corruption did not degrade internet: base=%d pathological=%d",
			base.InternetOK, checksum.InternetOK)
	}

	serialCfg := cfg
	serialCfg.Shards = 1
	m2, err := PathologySweep(serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	if out2 := m2.String(); out2 != out {
		t.Errorf("sweep not shard-invariant:\n--- sharded\n%s--- serial\n%s", out, out2)
	}
}

// TestPathologySweepUnknownName pins the error path: sweeping an
// unregistered pathology fails loudly instead of silently running the
// baseline.
func TestPathologySweepUnknownName(t *testing.T) {
	_, err := PathologySweep(PathologyConfig{Seed: 1, N: 2, Pathologies: []string{"no-such-pathology"}})
	if err == nil || !strings.Contains(err.Error(), "no-such-pathology") {
		t.Fatalf("want unknown-pathology error, got %v", err)
	}
}
