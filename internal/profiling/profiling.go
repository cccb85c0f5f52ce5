// Package profiling takes the CPU and heap profiles the command-line
// tools write on request (-cpuprofile, -memprofile) with runtime/pprof.
// Read them with `go tool pprof <binary> <file>`.
package profiling

import (
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile written to cpuPath and returns a stop
// function that ends it and then writes a heap profile to memPath. An
// empty path skips that profile; with both empty, nothing is recorded.
// Call stop exactly once, before the program exits.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if memPath != "" {
			errs = append(errs, writeHeap(memPath))
		}
		return errors.Join(errs...)
	}, nil
}

// writeHeap writes a heap profile after a collection, so the in-use
// figures reflect live memory rather than garbage not yet swept.
func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
