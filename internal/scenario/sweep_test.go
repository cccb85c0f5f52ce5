package scenario

import (
	"strings"
	"testing"

	"repro/internal/pathology"
)

// TestSweep runs small grids through the sweep engine and checks, for
// each: the sink gets one row per device per cell, a second sweep
// reproduces every cell's report exactly, the K=2 cells fold to their
// K=1 twins (stateful pathologies included), and the pristine first
// cell loses no device. An unknown pathology fails the sweep by name.
func TestSweep(t *testing.T) {
	cases := []struct {
		name    string
		grid    Grid
		wantErr string
		check   func(t *testing.T, cells []Cell)
	}{
		{
			name: "chaos",
			grid: Grid{Seed: 1, Populations: []int{6}, Shards: []int{1, 2},
				LossLevels: []float64{0, 0.20}, RebootLevels: []int{0, 1}},
		},
		{
			name: "pathology",
			grid: Grid{Seed: 1, Populations: []int{8}, Shards: []int{1, 2},
				Pathologies: []string{pathology.None, "nat64-checksum-corruption", "dns-v4-interference",
					"dns64-flapping", "gateway-ra-outage", "nat64-port-exhaustion"}},
			check: func(t *testing.T, cells []Cell) {
				base, checksum := cells[0].Report, cells[2].Report
				if cells[2].Pathology != "nat64-checksum-corruption" {
					t.Fatalf("cell 2 is %s, want the checksum cell", cells[2].Name())
				}
				if checksum.InternetOK >= base.InternetOK {
					t.Errorf("checksum corruption did not degrade internet: base=%d pathological=%d",
						base.InternetOK, checksum.InternetOK)
				}
			},
		},
		{
			name:    "unknown",
			grid:    Grid{Seed: 1, Populations: []int{2}, Pathologies: []string{"no-such-pathology"}},
			wantErr: "no-such-pathology",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.wantErr != "" {
				_, err := Sweep(tc.grid, nil)
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("want an error naming %q, got %v", tc.wantErr, err)
				}
				return
			}
			cells := checkSweep(t, tc.grid)
			if tc.check != nil {
				tc.check(t, cells)
			}
		})
	}
}

// checkSweep runs g through Sweep twice and checks the contract every
// sweep keeps: the sink gets one row per device per cell, the second
// sweep reproduces every cell's report exactly, each K=1 cell's K=2
// twin (when the grid has both) folds to the same report, and the
// pristine first cell loses no device. It returns the first sweep's
// cells.
func checkSweep(t *testing.T, g Grid) []Cell {
	t.Helper()
	sink := &collectSink{}
	cells, err := Sweep(g, func(Cell) RowSink { return sink })
	if err != nil {
		t.Fatal(err)
	}
	n := g.Populations[0]
	if want := len(cells) * n; len(sink.rows) != want {
		t.Errorf("streamed %d rows, want %d (%d cells × %d devices)", len(sink.rows), want, len(cells), n)
	}

	again, err := Sweep(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(cells) {
		t.Fatalf("second sweep ran %d cells, want %d", len(again), len(cells))
	}
	for i, c := range cells {
		if a, b := reportDigest(c.Report), reportDigest(again[i].Report); a != b {
			t.Errorf("%s: second sweep's report differs", c.Name())
		}
	}

	// Shards is the fastest axis but reboots: cell i+len(reboots) is
	// cell i's K=2 twin.
	stride := len(orDefault(g.RebootLevels, 0))
	for i, c := range cells {
		if c.Shards != 1 {
			continue
		}
		twin := cells[i+stride]
		if twin.Shards != 2 || twin.Reboots != c.Reboots || twin.Pathology != c.Pathology || twin.Loss != c.Loss {
			t.Fatalf("%s: twin %s is not its K=2 cell", c.Name(), twin.Name())
		}
		// HealthyQueries depends on which devices share a world's
		// resolver cache, so it is outside the shard contract.
		serial, sharded := *c.Report, *twin.Report
		serial.HealthyQueries, sharded.HealthyQueries = 0, 0
		if reportDigest(&serial) != reportDigest(&sharded) {
			t.Errorf("%s: report differs from its K=1 twin:\nK=1 %+v\nK=2 %+v", twin.Name(), serial, sharded)
		}
	}

	if pristine := cells[0].Report; pristine.InternetOK+pristine.Informed > n {
		t.Errorf("pristine cell outcomes %d exceed population %d", pristine.InternetOK+pristine.Informed, n)
	}
	return cells
}
