// Package profiling wires the standard -cpuprofile/-memprofile/
// -mutexprofile/-blockprofile flag set into a command's lifecycle:
// start CPU profiling and arm the contention samplers up front, write
// the exit snapshots (heap, mutex, block) when the command finishes.
// The CLIs (mcpsim, mcpd) share this so their flags behave
// identically and feed straight into `go tool pprof`.
package profiling

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Sampling rates for the contention profiles. Mutex: one in
// MutexFraction contended lock events is sampled. Block: a blocking
// event is sampled when it lasted at least BlockRateNS nanoseconds.
// Both are cheap enough to leave on for a whole benchmark run but are
// only armed when the matching flag asks for the profile.
const (
	MutexFraction = 5
	BlockRateNS   = 10_000
)

// Config holds the profile output paths; empty paths disable that
// profile.
type Config struct {
	CPU   string
	Mem   string
	Mutex string
	Block string
}

// AddFlags registers the standard profiling flags on fs and returns the
// Config the parsed values land in.
func AddFlags(fs *flag.FlagSet) *Config {
	c := &Config{}
	fs.StringVar(&c.CPU, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&c.Mem, "memprofile", "", "write a heap profile at exit to this file")
	fs.StringVar(&c.Mutex, "mutexprofile", "", "write a mutex-contention profile at exit to this file")
	fs.StringVar(&c.Block, "blockprofile", "", "write a goroutine-blocking profile at exit to this file")
	return c
}

// Start begins CPU profiling and arms the mutex/block samplers for the
// profiles whose paths are set, and returns a stop function that writes
// the exit snapshots and disarms the samplers. Every output file is
// created up front so a bad path fails before the run, not after it.
// Start never returns a nil stop function on success.
func (c *Config) Start() (stop func() error, err error) {
	files := make(map[string]*os.File)
	cleanup := func() {
		for _, f := range files {
			f.Close() //nolint:errcheck
		}
	}
	for _, p := range []struct{ flagName, path string }{
		{"-cpuprofile", c.CPU},
		{"-memprofile", c.Mem},
		{"-mutexprofile", c.Mutex},
		{"-blockprofile", c.Block},
	} {
		if p.path == "" {
			continue
		}
		f, err := os.Create(p.path)
		if err != nil {
			cleanup()
			return nil, fmt.Errorf("%s: %w", p.flagName, err)
		}
		files[p.flagName] = f
	}
	if f := files["-cpuprofile"]; f != nil {
		if err := pprof.StartCPUProfile(f); err != nil {
			cleanup()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	if files["-mutexprofile"] != nil {
		runtime.SetMutexProfileFraction(MutexFraction)
	}
	if files["-blockprofile"] != nil {
		runtime.SetBlockProfileRate(BlockRateNS)
	}

	return func() error {
		var firstErr error
		keep := func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if f := files["-cpuprofile"]; f != nil {
			pprof.StopCPUProfile()
			keep(f.Close())
		}
		if f := files["-memprofile"]; f != nil {
			runtime.GC() // materialize the live set before snapshotting it
			keep(writeProfile("heap", "-memprofile", f))
		}
		if f := files["-mutexprofile"]; f != nil {
			keep(writeProfile("mutex", "-mutexprofile", f))
			runtime.SetMutexProfileFraction(0)
		}
		if f := files["-blockprofile"]; f != nil {
			keep(writeProfile("block", "-blockprofile", f))
			runtime.SetBlockProfileRate(0)
		}
		return firstErr
	}, nil
}

func writeProfile(name, flagName string, f *os.File) error {
	p := pprof.Lookup(name)
	if p == nil {
		f.Close() //nolint:errcheck
		return fmt.Errorf("%s: no %s profile in this runtime", flagName, name)
	}
	if err := p.WriteTo(f, 0); err != nil {
		f.Close() //nolint:errcheck
		return fmt.Errorf("%s: %w", flagName, err)
	}
	return f.Close()
}
