// Command mcpd runs one process of a multi-process checkpointing
// cluster: a daemon hosting one protocol engine over TCP channels to
// its peers and an on-disk stable store, driven by the control RPC that
// mcpctl speaks.
//
// Usage:
//
//	mcpd -config cluster.json -id 0
//
// Start one mcpd per node row in the config, in any order; each daemon
// keeps dialing its peers until the full mesh is up. SIGTERM (or
// `mcpctl shutdown`) drains in-flight work and fsyncs the store shut.
//
// The standard profiling flags (-cpuprofile, -memprofile,
// -mutexprofile, -blockprofile) snapshot the daemon's whole lifetime:
// armed before the listeners come up, written after the drain — the
// mutex and block profiles are how commit-tail contention between the
// event loop's store writes and the per-peer writers is diagnosed on a
// live cluster.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"mutablecp/internal/daemon"
	"mutablecp/internal/profiling"
)

var errUsage = errors.New("mcpd: -config and -id are required")

func main() {
	if daemon.MaybeChild() {
		return
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mcpd:", err)
		if errors.Is(err, errUsage) || errors.Is(err, flag.ErrHelp) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mcpd", flag.ContinueOnError)
	config := fs.String("config", "", "cluster config file (JSON)")
	id := fs.Int("id", -1, "this node's id in the config")
	prof := profiling.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *config == "" || *id < 0 {
		return errUsage
	}
	stopProfiles, err := prof.Start()
	if err != nil {
		return err
	}
	runErr := daemon.Run(*config, *id)
	if err := stopProfiles(); err != nil && runErr == nil {
		return err
	}
	return runErr
}
