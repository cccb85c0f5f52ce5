package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/metrics"
	"repro/internal/scenario"
)

// This file is the experiments.json grid runner. The file is a
// scenario.Grid plus the row stream's format and destination;
// scenario.Sweep runs the grid, and every run streams one CSV/JSONL row
// per device through a metrics.Emitter (the sweep discards per-device
// results, so retained state stays O(1) in devices).

// gridConfig mirrors the experiments.json schema: the sweep's axes
// (empty lists are one default level, so `{}` runs one classic
// 24-device serial cell once) plus where the rows go.
type gridConfig struct {
	scenario.Grid
	// Format is "csv" (default) or "jsonl".
	Format string `json:"format"`
	// Output is the row stream's destination path; empty or "-" writes
	// rows to stdout (summaries then move to stderr).
	Output string `json:"output"`
}

// runGrid executes the grid described by the experiments.json at path,
// writing streamed rows to the configured output and one summary line
// per run after the sweep.
func runGrid(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var cfg gridConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	format, err := metrics.ParseEmitFormat(cfg.Format)
	if err != nil {
		return err
	}

	rows, sum, dest := io.Writer(os.Stdout), io.Writer(os.Stderr), "stdout"
	if cfg.Output != "" && cfg.Output != "-" {
		f, err := os.Create(cfg.Output)
		if err != nil {
			return err
		}
		defer f.Close()
		rows, sum, dest = f, os.Stdout, cfg.Output
	}
	em := metrics.NewEmitter(rows, format)

	cells, err := scenario.Sweep(cfg.Grid, func(c scenario.Cell) scenario.RowSink {
		name := c.Name()
		return scenario.RowSinkFunc(func(r scenario.Row) {
			_ = em.Emit(metrics.RowRecord{
				Cell:        name,
				Repeat:      c.Repeat,
				Shard:       r.Shard,
				Index:       r.Index,
				Device:      r.Spec.Name,
				Profile:     r.Spec.Profile.Name,
				Class:       r.Class,
				Informed:    r.Informed,
				Internet:    r.Internet,
				UsedIPv6:    r.UsedIPv6,
				Churned:     r.Churned,
				Reconverged: r.Reconverged,
				ConvergeMS:  r.ConvergeTime.Milliseconds(),
			})
		})
	})
	if err != nil {
		return err
	}
	for _, c := range cells {
		r := c.Report
		fmt.Fprintf(sum, "measured: %-36s repeat=%d joined=%-4d informed=%-3d internet=%-4d overcount=%d\n",
			c.Name(), c.Repeat, r.Joined, r.Informed, r.InternetOK, r.Overcount)
	}
	if err := em.Flush(); err != nil {
		return fmt.Errorf("writing rows: %w", err)
	}
	fmt.Fprintf(sum, "grid: %d runs, %d rows -> %s\n", len(cells), em.Rows(), dest)
	return nil
}
