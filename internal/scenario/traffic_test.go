package scenario

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/testbed"
)

// TestTrafficWorkloadSmoke runs the heavy streaming workload on a small
// population and checks flows complete with sane byte accounting
// through the translators.
func TestTrafficWorkloadSmoke(t *testing.T) {
	const n = 10
	devices := Population(1, n, DefaultMix())
	opt := RunOptions{Traffic: &TrafficOptions{
		FlowsPerDevice: 2,
		FlowBytes:      32 << 10,
		Pace:           2 * time.Millisecond,
		ChurnFlows:     1,
	}}
	spec := testbed.ScaleTopology(testbed.DefaultOptions(), n)
	world, err := testbed.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	rep := RunWith(world, devices, opt)

	tr := rep.Traffic
	if tr == nil {
		t.Fatal("Traffic report missing")
	}
	if tr.Flows.Opened == 0 || tr.Flows.Completed == 0 {
		t.Fatalf("no flows ran: %+v", tr.Flows)
	}
	if tr.Flows.Completed > tr.Flows.Opened {
		t.Errorf("completed %d > opened %d", tr.Flows.Completed, tr.Flows.Opened)
	}
	if tr.Flows.Aborted == 0 {
		t.Error("paced churn flows should abandon mid-transfer, none aborted")
	}
	if min := int64(tr.Flows.Completed) * (32 << 10); tr.Flows.BytesDown < min {
		t.Errorf("BytesDown %d < %d (completed flows × body size)", tr.Flows.BytesDown, min)
	}
	if tr.Flows.BytesUp == 0 {
		t.Error("no request bytes accounted")
	}
	if len(tr.PerClass) == 0 {
		t.Error("per-class split empty")
	}
	var perClass FlowStats
	for _, cs := range tr.PerClass {
		perClass.add(cs)
	}
	if perClass != tr.Flows {
		t.Errorf("per-class split %+v does not sum to total %+v", perClass, tr.Flows)
	}
	// The CDN is IPv4-only: IPv6-only clients must have pushed bytes
	// through NAT64, and some legacy/dual-stack path through NAT44.
	if tr.Gateway.NAT64BytesOut == 0 {
		t.Error("no NAT64 bytes despite v6-only clients streaming from an IPv4-only CDN")
	}
	if tr.Gateway.NAT64BytesIn <= tr.Gateway.NAT64BytesOut {
		t.Errorf("downloads should dominate: NAT64 in=%d out=%d",
			tr.Gateway.NAT64BytesIn, tr.Gateway.NAT64BytesOut)
	}
	if tr.String() == "" {
		t.Error("empty traffic rendering")
	}
}

// TestTrafficShardedMatchesSerial pins the shard-equality contract for
// the heavy-traffic layer: flow and translator byte accounting is
// per-device and position-independent, so the merged report equals the
// serial one field for field.
func TestTrafficShardedMatchesSerial(t *testing.T) {
	const n = 12
	opt := RunOptions{Traffic: &TrafficOptions{
		FlowsPerDevice: 1,
		FlowBytes:      24 << 10,
		Pace:           time.Millisecond,
		ChurnFlows:     1,
	}}
	for _, seed := range []int64{1, 2} {
		devices := Population(seed, n, DefaultMix())
		spec := testbed.ScaleTopology(testbed.DefaultOptions(), n)

		world, err := testbed.Build(spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		serial := RunWith(world, devices, opt)
		world.Close()
		if serial.Traffic == nil || serial.Traffic.Flows.Opened == 0 {
			t.Fatalf("seed %d: serial run streamed nothing", seed)
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
				for cls, cs := range st.PerClass {
					if sh.PerClass[cls] != cs {
						t.Errorf("class %v: serial %+v != sharded %+v", cls, cs, sh.PerClass[cls])
					}
				}
			})
		}
	}
}
