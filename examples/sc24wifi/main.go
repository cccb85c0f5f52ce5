// sc24wifi simulates a conference-floor wireless population against the
// SC23 baseline (IPv6-mostly, no DNS intervention) and the SC24
// deployment (poisoned IPv4 DNS), reporting the client-counting
// accuracy the paper's §III.A is after.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/testbed"
)

func main() {
	n := flag.Int("n", 60, "population size")
	seed := flag.Int64("seed", 1, "population seed")
	shards := flag.Int("shards", 0, "split the run across this many worlds (0 = serial)")
	flag.Parse()

	devices := scenario.Population(*seed, *n, scenario.DefaultMix())

	optBase := testbed.DefaultOptions()
	optBase.Poison = testbed.PoisonOff

	run := func(opt testbed.Options) *scenario.Report {
		if *shards > 1 {
			// Sharded runs use the scale topology (wide pools, long
			// lifetimes) so device outcomes are position-independent and
			// the merged report matches a serial run of the same seed.
			spec := testbed.ScaleTopology(opt, *n)
			build := func(int) (*testbed.Testbed, error) { return testbed.Build(spec) }
			rep, err := scenario.RunShardedSized(build, devices,
				scenario.ShardOptions{Shards: *shards, Seed: *seed})
			if err != nil {
				log.Fatalf("sharded run: %v", err)
			}
			return rep
		}
		return scenario.RunWith(testbed.New(opt), devices, scenario.RunOptions{})
	}

	base := run(optBase)
	sc24 := run(testbed.DefaultOptions())

	fmt.Printf("population: %d devices (seed %d)\n\n", *n, *seed)
	fmt.Printf("%-10s %8s %9s %9s %9s %12s %10s\n",
		"config", "joined", "informed", "internet", "reported", "true-v6only", "overcount")
	for _, row := range []struct {
		name string
		r    *scenario.Report
	}{{"SC23", base}, {"SC24", sc24}} {
		fmt.Printf("%-10s %8d %9d %9d %9d %12d %10d\n",
			row.name, row.r.Joined, row.r.Informed, row.r.InternetOK,
			row.r.ReportedSSIDClients, row.r.TrueIPv6Only, row.r.Overcount)
	}

	fmt.Println("\nSC24 devices hit by the intervention:")
	for _, d := range sc24.Devices {
		if d.Informed {
			fmt.Printf("  %-24s (%s)\n", d.Spec.Name, d.Spec.Profile.Name)
		}
	}
	fmt.Println("\nresidual overcount sources (devices still emitting IPv4 data at SC24):")
	for _, d := range sc24.Devices {
		if !d.Informed && (d.Class == metrics.ClassV4Only || d.Class == metrics.ClassDual) {
			fmt.Printf("  %-24s (%s, class=%s, echolink-only=%v)\n",
				d.Spec.Name, d.Spec.Profile.Name, d.Class, d.Spec.EcholinkOnly)
		}
	}
}
