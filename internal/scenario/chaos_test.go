package scenario

import (
	"fmt"
	"testing"

	"repro/internal/testbed"
)

// TestChaosShardedMatchesSerial is the chaos shard-equality property
// test: for seeds 1..5 and K ∈ {2, 8}, an impaired, churned population
// produces the same merged report sharded as it does serially. The
// per-client impairment streams are seeded from client names and churn
// is per-device trials, so neither depends on which world a device
// lands in.
func TestChaosShardedMatchesSerial(t *testing.T) {
	const n = 16
	opt := RunOptions{RebootsPerDevice: 1}
	for seed := int64(1); seed <= 5; seed++ {
		devices := Population(seed, n, DefaultMix())
		spec := ChaosSpec(seed, n, 0, 0.10)

		world, err := testbed.Build(spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		serial := RunWith(world, devices, opt)
		world.Close()

		if len(serial.Convergence) == 0 {
			t.Fatalf("seed %d: churned run produced no convergence data", seed)
		}

		for _, k := range []int{2, 8} {
			t.Run(fmt.Sprintf("seed%d/k%d", seed, k), func(t *testing.T) {
				sharded, err := RunShardedSized(sized(spec), devices, ShardOptions{
					Shards: k, Seed: seed, Run: opt,
				})
				if err != nil {
					t.Fatal(err)
				}
				assertReportsMatch(t, serial, sharded)
			})
		}
	}
}

// TestChaosZeroImpairmentIsLegacy pins that the chaos-capable engine
// with every knob off runs the classic workload: two fresh worlds of
// the same topology give the same report, with no Convergence map.
func TestChaosZeroImpairmentIsLegacy(t *testing.T) {
	const n = 12
	devices := Population(3, n, DefaultMix())
	spec := testbed.ScaleTopology(testbed.DefaultOptions(), n)

	w1, err := testbed.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	legacy := RunWith(w1, devices, RunOptions{})
	w1.Close()

	w2, err := testbed.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	chaosOff := RunWith(w2, devices, RunOptions{})
	w2.Close()

	assertReportsMatch(t, legacy, chaosOff)
	if legacy.HealthyQueries != chaosOff.HealthyQueries {
		t.Errorf("HealthyQueries: legacy=%d chaos-off=%d",
			legacy.HealthyQueries, chaosOff.HealthyQueries)
	}
	if chaosOff.Convergence != nil {
		t.Error("zero-churn run grew a Convergence map")
	}
}

// TestChaosSweepSmoke runs the chaos loss × churn grid end to end
// through Sweep: four sharded cells, loss-major then reboots, that a
// repeat sweep reproduces exactly and whose pristine cell loses no
// device.
func TestChaosSweepSmoke(t *testing.T) {
	g := Grid{Seed: 1, Populations: []int{6}, Shards: []int{2},
		LossLevels: []float64{0, 0.20}, RebootLevels: []int{0, 1}}
	cells := checkSweep(t, g)
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(cells))
	}
	for i, c := range cells {
		if loss, reboots := g.LossLevels[i/2], g.RebootLevels[i%2]; c.Loss != loss || c.Reboots != reboots || c.Shards != 2 {
			t.Errorf("cell %d is %s, want loss %v reboots %d on 2 shards", i, c.Name(), loss, reboots)
		}
	}
}
