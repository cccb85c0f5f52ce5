//go:build !race

package scenario

import (
	"testing"

	"repro/internal/testbed"
)

// TestShardedMatchesSerialAtScale is the acceptance check: a
// 1000-device population sharded across 8 worlds yields a report equal
// field-by-field to the serial run for the same seed. The !race build
// tag keeps the -race CI lane fast; TestShardedMatchesSerial covers
// the same property at small n under the race detector.
func TestShardedMatchesSerialAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-device population; skipped with -short")
	}
	const n = 1000
	const seed = int64(1)
	devices := Population(seed, n, DefaultMix())
	spec := testbed.ScaleTopology(testbed.DefaultOptions(), n)

	world, err := testbed.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	serial := RunWith(world, devices, RunOptions{})
	world.Close()

	sharded, err := RunShardedSized(sized(spec), devices, ShardOptions{Shards: 8, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	assertReportsMatch(t, serial, sharded)

	if serial.Joined != n || sharded.Joined != n {
		t.Errorf("Joined: serial=%d sharded=%d, want %d", serial.Joined, sharded.Joined, n)
	}
	if len(sharded.Shards) != 8 {
		t.Errorf("shard metadata: %d entries, want 8", len(sharded.Shards))
	}
}
