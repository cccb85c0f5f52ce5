package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// This file holds the traced run's spans. Spans wrap only the
// benchmark's own calls into the program — world builds, checkpoints,
// pool checkouts, resets, the run call and the interval between
// consecutive rows of one shard — so tracing adds no code to the
// program. They are kept in memory and written out once the run ends.

// span is one timed interval. Parent is the id of the enclosing span
// (0 for none); Shard is set on row intervals only.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	Shard   *int   `json:"shard,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer records spans relative to its creation time. A nil tracer
// records nothing, which is how the untraced run skips it.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// add records a finished interval and returns its id.
func (t *tracer) add(name string, parent int, shard *int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Shard: shard,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// durations returns the durations (ms) of every span with this name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

// traceFile is what a traced run writes for its workload.
type traceFile struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Metrics  map[string]metricValue `json:"per_layer"`
	CPU      cpuSplit               `json:"cpu"`
	Spans    []span                 `json:"spans"`
}

// write stores the trace as <dir>/<workload>.json.
func (f *traceFile) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, f.Workload+".json")
	data, err := json.Marshal(f)
	if err != nil {
		return "", fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("writing trace: %w", err)
	}
	return path, nil
}
