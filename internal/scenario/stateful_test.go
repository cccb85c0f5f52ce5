package scenario

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/pathology"
	"repro/internal/testbed"
)

// statefulNames is the stateful built-in set the shard-equality lane
// exercises explicitly (the rotating stateless lane skips budgets).
var statefulNames = []string{"dns64-flapping", "gateway-ra-outage", "nat64-port-exhaustion"}

// TestStatefulPathologyShardedMatchesSerial is the stateful
// shard-equality property: for every stateful pathology, seeds 1..5 and
// K ∈ {2, 8}, a sharded run merges to the identical report a serial run
// produces. This is the hard case the engine's three mechanisms exist
// for — grid-anchored flap patterns (every aligned trial samples the
// same schedule phase), zero registered onset (no install-relative
// state), and pro-rata budgets via FactorySized (each shard world's
// port pool sized to its own device count).
func TestStatefulPathologyShardedMatchesSerial(t *testing.T) {
	const n = 10
	for _, name := range statefulNames {
		for seed := int64(1); seed <= 5; seed++ {
			devices := Population(seed, n, DefaultMix())
			fac := pathology.FactorySized(testbed.ScaleTopology(testbed.DefaultOptions(), n), name)

			world, err := fac(len(devices))
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			serial := RunWith(world, devices, RunOptions{})
			world.Close()

			for _, k := range []int{2, 8} {
				t.Run(fmt.Sprintf("%s/seed%d/k%d", name, seed, k), func(t *testing.T) {
					sharded, err := RunShardedSized(fac, devices, ShardOptions{Shards: k, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					assertReportsMatch(t, serial, sharded)
				})
			}
		}
	}
}

// TestExhaustionTrafficShardedMatchesSerial drives the heavy-traffic
// layer through nat64-port-exhaustion: concurrent paced flows contend
// for the one-port-per-subscriber block, so the exhaustion counter and
// the byte ledgers are all live state — and they still must merge
// exactly, because the budget splits the port pool pro rata and
// refusals are per-device decisions.
func TestExhaustionTrafficShardedMatchesSerial(t *testing.T) {
	const n = 12
	opt := RunOptions{Traffic: &TrafficOptions{
		FlowsPerDevice: 2,
		FlowBytes:      24 << 10,
		Pace:           2 * time.Millisecond,
		ChurnFlows:     1,
	}}
	for _, seed := range []int64{1, 2} {
		devices := Population(seed, n, DefaultMix())
		fac := pathology.FactorySized(
			testbed.ScaleTopology(testbed.DefaultOptions(), n),
			"nat64-port-exhaustion")

		world, err := fac(len(devices))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		serial := RunWith(world, devices, opt)
		world.Close()
		if serial.Traffic == nil || serial.Traffic.Flows.Opened == 0 {
			t.Fatalf("seed %d: serial run streamed nothing", seed)
		}
		if serial.Traffic.Gateway.NAT64PortsExhausted == 0 {
			t.Fatalf("seed %d: paced concurrent flows through a 1-port block tripped no refusals", seed)
		}

		for _, k := range []int{2, 8} {
			t.Run(fmt.Sprintf("seed%d/k%d", seed, k), func(t *testing.T) {
				sharded, err := RunShardedSized(fac, devices, ShardOptions{
					Shards: k, Seed: seed, Run: opt,
				})
				if err != nil {
					t.Fatal(err)
				}
				assertReportsMatch(t, serial, sharded)
				st, sh := serial.Traffic, sharded.Traffic
				if sh == nil {
					t.Fatal("sharded run lost the traffic report")
				}
				if st.Flows != sh.Flows {
					t.Errorf("flows: serial %+v != sharded %+v", st.Flows, sh.Flows)
				}
				if st.Gateway != sh.Gateway {
					t.Errorf("gateway: serial %+v != sharded %+v", st.Gateway, sh.Gateway)
				}
			})
		}
	}
}

// TestStatefulPathologySweepSmoke sweeps the three stateful names plus
// the control, serial and sharded, through Sweep: every K=2 cell folds
// to its K=1 twin — the stateful analog of TestPathologySweepSmoke.
func TestStatefulPathologySweepSmoke(t *testing.T) {
	names := append([]string{pathology.None}, statefulNames...)
	cells := checkSweep(t, Grid{Seed: 1, Populations: []int{8}, Shards: []int{1, 2}, Pathologies: names})
	if want := 2 * len(names); len(cells) != want {
		t.Fatalf("cells = %d, want %d", len(cells), want)
	}
	for i, c := range cells {
		if c.Pathology != names[i/2] {
			t.Errorf("cell %d is %s, want pathology %s", i, c.Name(), names[i/2])
		}
	}
}
