package scenario

import (
	"fmt"
	"testing"

	"repro/internal/testbed"
)

// TestRingShardedMatchesSerialUnderImpairment is the shard-equality
// property test for the unicast ring fast path: for seeds 1..5 and
// K ∈ {2, 8}, an impaired, churned population produces the same report
// (a) serially with rings on, (b) serially with rings forced off, and
// (c) sharded with rings on. Impaired links bypass the rings so the
// chaos PRNG streams draw in the legacy order, while the pristine
// infrastructure links ride the rings — this test pins that the two
// paths interleave without observable difference. (The streaming
// workload is exercised on clean links by TestTrafficShardedMatchesSerial:
// the TCP subset has no retransmission, so long flows over lossy links
// would only ever stall.)
func TestRingShardedMatchesSerialUnderImpairment(t *testing.T) {
	const n = 10
	opt := RunOptions{RebootsPerDevice: 1}
	for seed := int64(1); seed <= 5; seed++ {
		devices := Population(seed, n, DefaultMix())
		spec := ChaosSpec(seed, n, 0, 0.10)

		world, err := testbed.Build(spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !world.Net.UnicastRingsEnabled() {
			t.Fatal("rings should be the default")
		}
		serial := RunWith(world, devices, opt)
		world.Close()
		if len(serial.Convergence) == 0 {
			t.Fatalf("seed %d: churned run produced no convergence data", seed)
		}

		t.Run(fmt.Sprintf("seed%d/rings-off", seed), func(t *testing.T) {
			w, err := testbed.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			w.Net.SetUnicastRings(false)
			legacy := RunWith(w, devices, opt)
			w.Close()
			assertReportsMatch(t, serial, legacy)
			assertTrafficMatch(t, serial, legacy)
			if legacy.HealthyQueries != serial.HealthyQueries {
				t.Errorf("HealthyQueries: rings=%d legacy=%d", serial.HealthyQueries, legacy.HealthyQueries)
			}
		})

		for _, k := range []int{2, 8} {
			t.Run(fmt.Sprintf("seed%d/k%d", seed, k), func(t *testing.T) {
				sharded, err := RunShardedSized(sized(spec), devices, ShardOptions{
					Shards: k, Seed: seed, Run: opt,
				})
				if err != nil {
					t.Fatal(err)
				}
				assertReportsMatch(t, serial, sharded)
				assertTrafficMatch(t, serial, sharded)
			})
		}
	}
}

// assertTrafficMatch requires two reports' traffic aggregates to be
// equal field for field (flows, per-class split, gateway counters).
func assertTrafficMatch(t *testing.T, a, b *Report) {
	t.Helper()
	ta, tb := a.Traffic, b.Traffic
	if (ta == nil) != (tb == nil) {
		t.Fatalf("traffic report presence differs: %v vs %v", ta != nil, tb != nil)
	}
	if ta == nil {
		return
	}
	if ta.Flows != tb.Flows {
		t.Errorf("flows: %+v != %+v", ta.Flows, tb.Flows)
	}
	if ta.Gateway != tb.Gateway {
		t.Errorf("gateway: %+v != %+v", ta.Gateway, tb.Gateway)
	}
	for cls, cs := range ta.PerClass {
		if tb.PerClass[cls] != cs {
			t.Errorf("class %v: %+v != %+v", cls, cs, tb.PerClass[cls])
		}
	}
	if len(ta.PerClass) != len(tb.PerClass) {
		t.Errorf("per-class cardinality: %d != %d", len(ta.PerClass), len(tb.PerClass))
	}
}
