package mutablecp

import (
	"errors"
	"fmt"
	"os"
	"time"

	"mutablecp/internal/algorithms"
	"mutablecp/internal/consistency"
	"mutablecp/internal/core"
	"mutablecp/internal/daemon"
	"mutablecp/internal/harness"
	"mutablecp/internal/protocol"
)

// Algorithm names accepted throughout the public API.
const (
	AlgoMutable         = algorithms.Mutable
	AlgoMutableTargeted = algorithms.MutableTargeted
	AlgoKooToueg        = algorithms.KooToueg
	AlgoElnozahy        = algorithms.Elnozahy
	AlgoChandyLamport   = algorithms.ChandyLamport
	AlgoNaiveSimple     = algorithms.NaiveSimple
	AlgoNaiveRevised    = algorithms.NaiveRevised
	AlgoNaiveNoCSN      = algorithms.NaiveNoCSN
)

// Algorithms lists every available checkpointing algorithm.
func Algorithms() []string { return algorithms.Names() }

// Core protocol types, re-exported for library users.
type (
	// ProcessID identifies a process (0..N-1).
	ProcessID = protocol.ProcessID
	// Trigger identifies a checkpointing instance.
	Trigger = protocol.Trigger
	// State is a checkpoint snapshot's channel-counter content.
	State = protocol.State
)

// Experiment API (simulated time), re-exported from the harness.
type (
	// ExperimentConfig configures one simulated experiment run.
	ExperimentConfig = harness.Config
	// ExperimentResult aggregates an experiment's samples.
	ExperimentResult = harness.Result
	// FigSeries is a regenerated figure (one row per swept rate).
	FigSeries = harness.FigSeries
	// Table1Row is one measured row of the paper's Table 1.
	Table1Row = harness.Table1Row
)

// Workload kinds for ExperimentConfig.Workload.
const (
	WorkloadP2P   = harness.WorkloadP2P
	WorkloadGroup = harness.WorkloadGroup
)

// RunExperiment executes one simulated experiment (paper §5.1 defaults:
// N=16, 2 Mbps shared wireless LAN, 900 s checkpoint intervals).
func RunExperiment(cfg ExperimentConfig) (*ExperimentResult, error) {
	return harness.Run(cfg)
}

// Fig5 regenerates the paper's Fig. 5 series.
func Fig5(seeds []uint64, rates []float64) (*FigSeries, error) {
	return harness.Sequential().Fig5(seeds, rates)
}

// Fig6 regenerates one panel of the paper's Fig. 6.
func Fig6(ratio float64, seeds []uint64, rates []float64) (*FigSeries, error) {
	return harness.Sequential().Fig6(ratio, seeds, rates)
}

// Table1 regenerates the paper's Table 1 empirically.
func Table1(rate float64, seeds []uint64) ([]Table1Row, error) {
	return harness.Sequential().Table1(rate, seeds)
}

// LiveOptions configures a live cluster.
type LiveOptions struct {
	// N is the number of processes (minimum 2).
	N int
	// Algorithm selects the engine: AlgoMutable (the default) or
	// AlgoMutableTargeted, the two the cluster daemon runs.
	Algorithm string
}

// LiveCluster is a running cluster of N in-process mcpd daemons: real
// time, loopback TCP between them, and durable checkpoint stores in a
// temporary directory the cluster owns.
type LiveCluster struct {
	cfg     *daemon.Config
	daemons []*daemon.Daemon
}

// liveReadyTimeout bounds NewLiveCluster's wait for every peer handshake.
const liveReadyTimeout = 10 * time.Second

// NewLiveCluster starts a live cluster and returns once every daemon has
// completed its handshakes. Call Close to stop it and delete its stores.
func NewLiveCluster(opts LiveOptions) (*LiveCluster, error) {
	dir, err := os.MkdirTemp("", "mutablecp-live-")
	if err != nil {
		return nil, err
	}
	cfg, err := daemon.LoopbackConfig(opts.N, dir)
	if err == nil {
		cfg.Algorithm = opts.Algorithm
		err = cfg.Validate()
	}
	if err != nil {
		os.RemoveAll(dir) //nolint:errcheck
		return nil, err
	}
	c := &LiveCluster{cfg: cfg}
	for id := range cfg.Nodes {
		d, err := daemon.New(cfg, id)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.daemons = append(c.daemons, d)
	}
	if err := daemon.WaitClusterReady(cfg, liveReadyTimeout); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// process returns the daemon running p.
func (c *LiveCluster) process(p ProcessID) (*daemon.Daemon, error) {
	if p < 0 || p >= len(c.daemons) {
		return nil, fmt.Errorf("mutablecp: no process P%d in a cluster of %d", p, len(c.daemons))
	}
	return c.daemons[p], nil
}

// Send sends one application message between processes.
func (c *LiveCluster) Send(from, to ProcessID, payload []byte) error {
	d, err := c.process(from)
	if err != nil {
		return err
	}
	return d.SendApp(to, payload)
}

// Checkpoint runs one coordinated checkpoint from the given initiator and
// waits up to timeout for it to terminate. It reports whether the
// instance committed. An initiator still inside an earlier instance,
// whose commit has not reached it yet, is asked again until it is out.
func (c *LiveCluster) Checkpoint(initiator ProcessID, timeout time.Duration) (bool, error) {
	d, err := c.process(initiator)
	if err != nil {
		return false, err
	}
	deadline := time.Now().Add(timeout)
	for {
		committed, err := d.Checkpoint(time.Until(deadline))
		if !errors.Is(err, core.ErrCheckpointInProgress) || time.Now().After(deadline) {
			return committed, err
		}
		time.Sleep(time.Millisecond)
	}
}

// Quiesce waits until no instance is in progress and no message is in
// flight, or fails after timeout.
func (c *LiveCluster) Quiesce(timeout time.Duration) error {
	return daemon.WaitQuiescent(c.cfg, timeout)
}

// RecoveryLine returns every process's newest permanent checkpoint state:
// the globally consistent line a failure would roll back to. Call it
// before Close.
func (c *LiveCluster) RecoveryLine() map[ProcessID]State {
	line := make(map[ProcessID]State, len(c.daemons))
	for p, d := range c.daemons {
		st, err := d.PermanentState()
		if err != nil {
			continue // stopped by Close
		}
		st.SentTo = protocol.PadCounters(st.SentTo, len(c.daemons))
		st.RecvFrom = protocol.PadCounters(st.RecvFrom, len(c.daemons))
		line[p] = st
	}
	return line
}

// Close stops every daemon and deletes the cluster's stores.
func (c *LiveCluster) Close() {
	for _, d := range c.daemons {
		d.Stop()
	}
	os.RemoveAll(c.cfg.StoreRoot) //nolint:errcheck
}

// VerifyConsistent checks a global checkpoint (one State per process) for
// orphan messages; it returns nil when consistent.
func VerifyConsistent(states map[ProcessID]State) error {
	return consistency.Check(states)
}
