//go:build race

package hoststack

// raceEnabled reports that the race detector is active. Its
// instrumentation adds allocations, so strict allocation-count
// assertions are skipped.
const raceEnabled = true
