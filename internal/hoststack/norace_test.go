//go:build !race

package hoststack

const raceEnabled = false
