package mutablecp

import (
	"time"

	"mutablecp/internal/algorithms"
	"mutablecp/internal/consistency"
	"mutablecp/internal/harness"
	"mutablecp/internal/livenet"
	"mutablecp/internal/protocol"
	"mutablecp/internal/trace"
)

// Algorithm names accepted throughout the public API.
const (
	AlgoMutable       = algorithms.Mutable
	AlgoKooToueg      = algorithms.KooToueg
	AlgoElnozahy      = algorithms.Elnozahy
	AlgoChandyLamport = algorithms.ChandyLamport
	AlgoNaiveSimple   = algorithms.NaiveSimple
	AlgoNaiveRevised  = algorithms.NaiveRevised
	AlgoNaiveNoCSN    = algorithms.NaiveNoCSN
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
	// TraceLog records structured protocol events.
	TraceLog = trace.Log
)

// NewTraceLog returns an unbounded structured event log usable in both
// live and simulated clusters.
func NewTraceLog() *TraceLog { return trace.New() }

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
	return harness.Fig5(seeds, rates)
}

// Fig6 regenerates one panel of the paper's Fig. 6.
func Fig6(ratio float64, seeds []uint64, rates []float64) (*FigSeries, error) {
	return harness.Fig6(ratio, seeds, rates)
}

// Table1 regenerates the paper's Table 1 empirically.
func Table1(rate float64, seeds []uint64) ([]Table1Row, error) {
	return harness.Table1(rate, seeds)
}

// LiveOptions configures a live (goroutine-per-process) cluster.
type LiveOptions struct {
	// N is the number of processes (minimum 2).
	N int
	// Algorithm selects the checkpointing protocol; default AlgoMutable.
	Algorithm string
	// TCP routes every message over loopback TCP connections through the
	// wire codec instead of in-memory channels.
	TCP bool
	// Delay adds an artificial per-message network delay (in-memory
	// transport only: NewLiveCluster rejects it together with TCP).
	Delay time.Duration
	// Trace, when non-nil, records structured protocol events.
	Trace *TraceLog
	// OnDeliver observes computation-message deliveries.
	OnDeliver func(to, from ProcessID, payload []byte)
}

// LiveCluster is a running concurrent instance of the protocol.
type LiveCluster struct {
	inner *livenet.Cluster
}

// NewLiveCluster builds and starts a live cluster.
func NewLiveCluster(opts LiveOptions) (*LiveCluster, error) {
	algo := opts.Algorithm
	if algo == "" {
		algo = AlgoMutable
	}
	factory, err := algorithms.New(algo)
	if err != nil {
		return nil, err
	}
	cfg := livenet.Config{
		N:         opts.N,
		NewEngine: factory,
		Delay:     opts.Delay,
		Trace:     opts.Trace,
		OnDeliver: opts.OnDeliver,
	}
	var inner *livenet.Cluster
	if opts.TCP {
		inner, err = livenet.NewTCP(cfg)
	} else {
		inner, err = livenet.New(cfg)
	}
	if err != nil {
		return nil, err
	}
	return &LiveCluster{inner: inner}, nil
}

// Send sends one application message between processes.
func (c *LiveCluster) Send(from, to ProcessID, payload []byte) error {
	return c.inner.Send(from, to, payload)
}

// Checkpoint runs one coordinated checkpoint from the given initiator and
// waits for it to terminate. It reports whether the instance committed.
func (c *LiveCluster) Checkpoint(initiator ProcessID, timeout time.Duration) (bool, error) {
	return c.inner.Checkpoint(initiator, timeout)
}

// Quiesce waits (best effort) until the cluster is idle.
func (c *LiveCluster) Quiesce(settle time.Duration) { c.inner.Quiesce(settle) }

// RecoveryLine returns every process's newest permanent checkpoint state:
// the globally consistent line a failure would roll back to.
func (c *LiveCluster) RecoveryLine() map[ProcessID]State { return c.inner.PermanentLine() }

// Close stops the cluster and waits for its goroutines.
func (c *LiveCluster) Close() { c.inner.Close() }

// VerifyConsistent checks a global checkpoint (one State per process) for
// orphan messages; it returns nil when consistent.
func VerifyConsistent(states map[ProcessID]State) error {
	return consistency.Check(states)
}
