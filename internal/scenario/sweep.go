package scenario

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/pathology"
	"repro/internal/testbed"
)

// This file is the sweep engine: a Grid names the axes of a
// cross-product of runs, and Sweep walks it cell by cell through
// RunShardedSized. Every world is the scale topology with the cell's
// link loss and its pathology installed, so the chaos loss × churn
// matrix, the pathology × profile matrix and the experiments.json grid
// are all one Grid each. Only the population, the loss level and the
// pathology shape a world; the cells of one such group share a
// WorldPool, so shard counts, reboot levels and repeats ride the
// testbed Checkpoint/Reset lifecycle instead of rebuilding.

// Grid is a sweep's axes. Its JSON tags are the experiments.json keys.
// An empty list (or zero Repeats) means one default level: 24 devices,
// 1 shard, loss 0, 0 reboots, pathology "none" and 1 repeat.
type Grid struct {
	// Seed draws every population and derives the per-shard and
	// per-loss-level chaos seeds.
	Seed int64 `json:"seed"`
	// Populations are the device counts; each draws from DefaultMix.
	Populations []int `json:"populations"`
	// Shards are the shard counts each cell runs with.
	Shards []int `json:"shards"`
	// LossLevels are the per-link loss fractions (see ChaosSpec).
	LossLevels []float64 `json:"loss_levels"`
	// RebootLevels are the gateway reboots per device trial.
	RebootLevels []int `json:"reboot_levels"`
	// Pathologies are registry names; "none" is the healthy control.
	Pathologies []string `json:"pathologies"`
	// Repeats runs every cell this many times over pooled worlds; the
	// repeats of a cell must stream identical rows.
	Repeats int `json:"repeats"`
}

// Cell is one run of a sweep: its coordinates on every axis and the
// merged report. Reports are aggregates only, so a sweep's retained
// state does not grow with its population: Sweep sets DiscardDevices,
// per-device results reach the caller through the row sinks alone, and
// the query logs are dropped (their lengths stay in PoisonedQueries and
// HealthyQueries).
type Cell struct {
	N         int
	Loss      float64
	Pathology string
	Shards    int
	Reboots   int
	Repeat    int
	Report    *Report
}

// Name labels the cell (repeats share it): n<N>/loss<percent>/
// <pathology>/k<shards>/reboot<reboots>.
func (c Cell) Name() string {
	return fmt.Sprintf("n%d/loss%.0f/%s/k%d/reboot%d", c.N, c.Loss*100, c.Pathology, c.Shards, c.Reboots)
}

// ChaosSpec returns the world a sweep builds at loss level lossIndex:
// the scale topology for n devices, with per-link loss and a chaos
// seed derived from (seed, lossIndex) when loss is non-zero. Exposed so
// tests and benchmarks can reproduce one level exactly.
func ChaosSpec(seed int64, n int, lossIndex int, loss float64) testbed.Topology {
	spec := testbed.ScaleTopology(testbed.DefaultOptions(), n)
	if loss > 0 {
		spec.Impair = netsim.Impairment{Loss: loss}
		spec.ChaosSeed = uint64(deriveSeed(seed, lossIndex))
	}
	return spec
}

// Sweep runs every cell of g in order — population, loss, pathology,
// shards, reboots, repeat — and returns them in that order. rows, when
// non-nil, supplies each run's row sink from the cell's coordinates
// (Report not yet set). The first failing cell (an unknown pathology
// name, a world that does not build) stops the sweep.
func Sweep(g Grid, rows func(Cell) RowSink) ([]Cell, error) {
	populations := orDefault(g.Populations, 24)
	losses := orDefault(g.LossLevels, 0)
	names := orDefault(g.Pathologies, pathology.None)
	shards := orDefault(g.Shards, 1)
	reboots := orDefault(g.RebootLevels, 0)
	repeats := max(g.Repeats, 1)

	var cells []Cell
	for _, n := range populations {
		devices := Population(g.Seed, n, DefaultMix())
		for li, loss := range losses {
			spec := ChaosSpec(g.Seed, n, li, loss)
			for _, name := range names {
				factory := pathology.FactorySized(spec, name)
				pool := NewWorldPool()
				for _, k := range shards {
					for _, nReboots := range reboots {
						for rep := 0; rep < repeats; rep++ {
							c := Cell{N: n, Loss: loss, Pathology: name, Shards: k, Reboots: nReboots, Repeat: rep}
							ro := RunOptions{RebootsPerDevice: nReboots, DiscardDevices: true}
							if rows != nil {
								ro.Sink = rows(c)
							}
							var err error
							c.Report, err = RunShardedSized(factory, devices, ShardOptions{Shards: k, Seed: g.Seed, Run: ro, Pool: pool})
							if err != nil {
								pool.Close()
								return nil, fmt.Errorf("scenario: cell %s repeat %d: %w", c.Name(), rep, err)
							}
							c.Report.PoisonLog, c.Report.HealthyLog = nil, nil
							cells = append(cells, c)
						}
					}
				}
				pool.Close()
			}
		}
	}
	return cells, nil
}

// orDefault returns levels, or the one default level when it is empty.
func orDefault[T any](levels []T, def T) []T {
	if len(levels) == 0 {
		return []T{def}
	}
	return levels
}
