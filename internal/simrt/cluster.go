// Package simrt is the discrete-event simulation runtime: it binds a
// checkpointing engine per process to the simulated network, the checkpoint
// stores, the workload, and the metrics collector. The same engines also
// run in real time under the cluster daemon (internal/daemon); simrt
// exists so the paper's virtual-time experiments (900-second checkpoint
// intervals, 2-second checkpoint transfers) finish in milliseconds of
// wall time.
package simrt

import (
	"errors"
	"fmt"
	"io"
	"time"

	"mutablecp/internal/checkpoint"
	"mutablecp/internal/des"
	"mutablecp/internal/netsim"
	"mutablecp/internal/protocol"
	"mutablecp/internal/trace"
	"mutablecp/internal/xrand"
)

// Config describes one simulated cluster. Zero fields take the paper's
// §5.1 defaults via Defaults.
type Config struct {
	// N is the number of processes (one per mobile host). Paper: 16.
	N int
	// Seed drives every random stream in the simulation.
	Seed uint64

	// NewTransport builds the network; nil means the paper's shared
	// 2 Mbps wireless LAN.
	NewTransport func(sim *des.Simulator, n int) netsim.Transport
	// NewEngine builds the checkpointing algorithm for one process.
	NewEngine func(env protocol.Env) protocol.Engine
	// NewStore builds the stable checkpoint store for one process; nil
	// means the in-memory checkpoint.StableStore. Supplying a factory
	// (e.g. one opening internal/stable on disk) makes the MSS side of
	// the storage split durable; simrt itself stays backend-agnostic.
	NewStore func(pid protocol.ProcessID, n int) (checkpoint.Store, error)

	// NewPayload, when non-nil, attaches a checkpoint payload store (the
	// data plane: the process image itself, content-addressed and
	// deduplicated — typically a chunkstore view) to every process. The
	// payload lifecycle shadows the control plane exactly: SaveTentative
	// also saves the image, MakePermanent commits it, DropTentative drops
	// it, and the stable transfer is charged the save receipt's NewBytes
	// instead of the fixed checkpointBytes — the incremental-transfer
	// saving the chunk store exists to measure. Requires Images.
	NewPayload func(pid protocol.ProcessID, n int) (checkpoint.PayloadStore, error)
	// Images supplies the process image a checkpoint taken now would
	// transfer. It is called once per tentative save (and once per
	// mutable save, whose captured image is the one a later promotion
	// transfers — the mutable checkpoint froze the state at save time).
	// workload.Images.Image fits. Required with NewPayload.
	Images func(pid protocol.ProcessID) []byte
	// RestoreImage, when non-nil, hands a recovering process the payload
	// image its restore materialized, overwriting the live image the
	// mutation profile would otherwise keep stepping — after a rollback
	// the process must resume from the checkpointed bytes, not from state
	// the rollback discarded. Optional; meaningful only with NewPayload.
	RestoreImage func(pid protocol.ProcessID, img []byte)

	// MutableSaveTime is the local cost of a mutable checkpoint (and of
	// the pre-copy for a tentative one). Paper: 2.5 ms.
	MutableSaveTime time.Duration
	// CheckpointInterval is the per-process checkpoint schedule. Paper:
	// 900 s. The timer resets whenever the process takes a stable
	// checkpoint early (inherited request), as §5.1 specifies.
	CheckpointInterval time.Duration
	// ScheduleCheckpoints enables the per-process checkpoint timers.
	ScheduleCheckpoints bool
	// ScheduledProcs, when positive, arms checkpoint timers only on the
	// first ScheduledProcs processes. Large-N scale runs restrict the
	// active participant set this way (the paper's min-process premise:
	// most of the system is idle); arming a timer per idle process would
	// itself cost O(N) heap and O(N log N) event churn.
	ScheduledProcs int
	// SingleInitiation serializes initiations cluster-wide (the paper's
	// evaluation regime: "concurrent initiation … not considered").
	SingleInitiation bool

	// RequestTimeout, when positive, arms a §3.6 timeout at every
	// initiation: if the initiator's termination weight has not returned
	// to 1 when the timer fires (a participant crashed, or the network ate
	// the requests for good), the instance is aborted via the engine's
	// AbortCurrent. Zero disables the timeout — the correct setting on a
	// reliable network, where every instance terminates on its own.
	RequestTimeout time.Duration
	// PartialAbortOnFailure selects the Kim–Park resolution when a
	// RequestTimeout fires while some process has fail-stopped: the
	// initiator calls AbortPartialStrict so the subtree with known,
	// uncontaminated dependencies still commits. Without it (or when the
	// engine does not support partial commit) the whole instance aborts.
	PartialAbortOnFailure bool

	// MessageLogging enables sender-based message logging: every
	// computation send also increments the sender's per-destination
	// determinant log, which survives rollbacks and lets the recovery
	// executor replay a failed process from its own checkpoint plus its
	// peers' logs (the log-based recovery family) without rolling anyone
	// else back.
	MessageLogging bool

	// Trace, when non-nil, records structured events for tests/tools.
	Trace *trace.Log
}

// The paper's §5.1 message and checkpoint sizes, and the doze wakeup cost.
const (
	// compMsgBytes is the computation message size. Paper: 1 KB (4 ms).
	compMsgBytes = 1024
	// sysMsgBytes is the system message size. Paper: 50 B (0.2 ms).
	sysMsgBytes = 50
	// checkpointBytes is the incremental checkpoint transferred to stable
	// storage. Paper: 512 KB (2 s).
	checkpointBytes = 512 * 1024
	// dozeWakeLatency is the cost of waking a dozing host on message
	// arrival.
	dozeWakeLatency = 5 * time.Millisecond
)

// Defaults fills zero fields with the paper's simulation parameters.
func (c Config) Defaults() Config {
	if c.N == 0 {
		c.N = 16
	}
	if c.NewTransport == nil {
		c.NewTransport = func(sim *des.Simulator, n int) netsim.Transport {
			return netsim.NewLAN(sim, n, netsim.WirelessLAN2Mbps)
		}
	}
	if c.MutableSaveTime == 0 {
		c.MutableSaveTime = 2500 * time.Microsecond
	}
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = 900 * time.Second
	}
	return c
}

// Cluster is one simulated system instance.
type Cluster struct {
	cfg       Config
	sim       *des.Simulator
	transport netsim.Transport
	procs     []*Proc
	rng       *xrand.Stream
	metrics   *Metrics

	// owner is the pid of the process whose initiation is in flight, or
	// -1. Used when cfg.SingleInitiation is set.
	owner int

	// msgPool recycles protocol.Message structs on the send/deliver hot
	// path. Enabled only when the transport guarantees exactly-once
	// delivery (netsim.ExactlyOnce): under a duplicating transport a
	// recycled struct could still be referenced by a second in-flight
	// delivery. The DES is single-threaded, so a plain free list suffices.
	pooling bool
	msgPool []*protocol.Message
	// deliveries recycles the in-flight records of Cluster.send under the
	// same gate; deliverySlab carves new records out in batches, so a run
	// that cannot recycle still pays one allocation per batch.
	deliveries   []*delivery
	deliverySlab []delivery

	// OnDeliver, when non-nil, observes every computation-message delivery
	// (application hook used by workloads and tests).
	OnDeliver func(to, from protocol.ProcessID, payload []byte)

	errs []error
}

// New builds a cluster. The returned cluster is idle: install a workload
// and call Start (or drive it manually in tests), then Run.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.Defaults()
	if cfg.NewEngine == nil {
		return nil, errors.New("simrt: Config.NewEngine is required")
	}
	if cfg.N < 2 {
		return nil, fmt.Errorf("simrt: need at least 2 processes, got %d", cfg.N)
	}
	if (cfg.NewPayload == nil) != (cfg.Images == nil) {
		return nil, errors.New("simrt: NewPayload and Images must be set together")
	}
	c := &Cluster{
		cfg:     cfg,
		sim:     des.New(),
		rng:     xrand.New(cfg.Seed),
		metrics: newMetrics(),
		owner:   -1,
	}
	c.transport = cfg.NewTransport(c.sim, cfg.N)
	_, c.pooling = c.transport.(netsim.ExactlyOnce)
	c.procs = make([]*Proc, cfg.N)
	for i := 0; i < cfg.N; i++ {
		p, err := newProc(c, i)
		if err != nil {
			return nil, err
		}
		c.procs[i] = p
	}
	for _, p := range c.procs {
		p.engine = cfg.NewEngine(p)
	}
	return c, nil
}

// newStore builds one process's stable store per the configuration.
func (c *Cluster) newStore(pid protocol.ProcessID) (checkpoint.Store, error) {
	if c.cfg.NewStore != nil {
		return c.cfg.NewStore(pid, c.cfg.N)
	}
	return checkpoint.NewStableStore(pid), nil
}

// newPayload builds one process's payload store view (nil when the run
// is control-plane only).
func (c *Cluster) newPayload(pid protocol.ProcessID) (checkpoint.PayloadStore, error) {
	if c.cfg.NewPayload == nil {
		return nil, nil
	}
	return c.cfg.NewPayload(pid, c.cfg.N)
}

// RestartStores simulates a crash and restart of the MSS's stable
// storage: every process's store is closed (if it is closeable) and
// rebuilt through the factory. With a durable backend the rebuilt store
// recovers its contents from disk; with the in-memory default the
// checkpoints are simply gone — which is exactly the difference the
// durable backend exists to demonstrate. Volatile MH state (engines,
// counters, mutable checkpoints) is untouched: it is the support
// station, not the hosts, that restarted.
func (c *Cluster) RestartStores() error {
	for _, p := range c.procs {
		if closer, ok := p.ckpt.Stable.(io.Closer); ok {
			if err := closer.Close(); err != nil {
				return fmt.Errorf("simrt: close P%d store: %w", p.id, err)
			}
		}
		st, err := c.newStore(p.id)
		if err != nil {
			return fmt.Errorf("simrt: reopen P%d store: %w", p.id, err)
		}
		if closer, ok := p.ckpt.Payload.(io.Closer); ok {
			if err := closer.Close(); err != nil {
				return fmt.Errorf("simrt: close P%d payload store: %w", p.id, err)
			}
		}
		pay, err := c.newPayload(p.id)
		if err != nil {
			return fmt.Errorf("simrt: reopen P%d payload store: %w", p.id, err)
		}
		p.ckpt.Stable, p.ckpt.Payload = st, pay
	}
	return nil
}

// Sim exposes the simulator for workloads and tests.
func (c *Cluster) Sim() *des.Simulator { return c.sim }

// Executed reports the total events fired.
func (c *Cluster) Executed() uint64 { return c.sim.Executed() }

// N returns the number of processes.
func (c *Cluster) N() int { return c.cfg.N }

// Config returns the effective configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Proc returns process i's runtime.
func (c *Cluster) Proc(i protocol.ProcessID) *Proc { return c.procs[i] }

// Metrics returns the collector.
func (c *Cluster) Metrics() *Metrics { return c.metrics }

// Rand returns a derived random stream for the given label.
func (c *Cluster) Rand(label uint64) *xrand.Stream { return c.rng.Derive(label) }

// Errors returns internal invariant violations observed during the run
// (always empty for a correct protocol).
func (c *Cluster) Errors() []error { return append([]error(nil), c.errs...) }

func (c *Cluster) fail(err error) { c.errs = append(c.errs, err) }

// Start arms the per-process checkpoint timers with random phases, if
// ScheduleCheckpoints is set.
func (c *Cluster) Start() {
	if !c.cfg.ScheduleCheckpoints {
		return
	}
	phases := c.rng.Derive(0xC0FFEE)
	scheduled := c.procs
	if c.cfg.ScheduledProcs > 0 && c.cfg.ScheduledProcs < len(scheduled) {
		scheduled = scheduled[:c.cfg.ScheduledProcs]
	}
	for _, p := range scheduled {
		p := p
		// Spread first initiations uniformly across one interval.
		phase := time.Duration(phases.Float64() * float64(c.cfg.CheckpointInterval))
		offset := phase - c.cfg.CheckpointInterval // ticker fires at period+phase
		p.ticker = c.sim.NewTicker(c.cfg.CheckpointInterval, offset, func() {
			p.MaybeInitiate()
		})
	}
}

// Run advances the simulation to the horizon.
func (c *Cluster) Run(horizon time.Duration) error { return c.sim.Run(horizon) }

// Drain runs remaining events with no new horizon (used after stopping the
// workload and tickers to let in-flight checkpointing terminate).
func (c *Cluster) Drain() error { return c.sim.RunAll() }

// StopTimers stops every checkpoint timer.
func (c *Cluster) StopTimers() {
	for _, p := range c.procs {
		if p.ticker != nil {
			p.ticker.Stop()
		}
	}
}

// SendApp sends one computation message from one process to another. It is
// the entry point workload generators use.
func (c *Cluster) SendApp(from, to protocol.ProcessID, payload []byte) {
	if from == to {
		c.fail(fmt.Errorf("simrt: self-send from P%d", from))
		return
	}
	c.procs[from].sendApp(to, payload)
}

// States captures every process's current counters (not a checkpoint —
// a live view used by tests).
func (c *Cluster) States() map[protocol.ProcessID]protocol.State {
	out := make(map[protocol.ProcessID]protocol.State, c.cfg.N)
	for _, p := range c.procs {
		out[p.id] = p.CaptureState()
	}
	return out
}

// PermanentLine returns the latest permanent checkpoint state of every
// process: the recovery line a failure right now would roll back to.
func (c *Cluster) PermanentLine() map[protocol.ProcessID]protocol.State {
	out := make(map[protocol.ProcessID]protocol.State, c.cfg.N)
	for _, p := range c.procs {
		out[p.id] = p.Stable().Permanent().State
	}
	return out
}

// newMessage returns a zeroed message struct, recycled from the pool when
// the transport permits it.
func (c *Cluster) newMessage() *protocol.Message {
	if n := len(c.msgPool); n > 0 {
		m := c.msgPool[n-1]
		c.msgPool = c.msgPool[:n-1]
		return m
	}
	return &protocol.Message{}
}

// releaseMessage recycles a fully-handled message struct. Only the struct
// is reset; payloads and MR snapshot words it pointed at stay valid for
// anyone who copied them out (engines never retain the struct itself).
func (c *Cluster) releaseMessage(m *protocol.Message) {
	if !c.pooling {
		return
	}
	*m = protocol.Message{}
	c.msgPool = append(c.msgPool, m)
}

// delivery is one message in flight from src to dst: the typed event the
// transport fires at the arrival instant, in place of a per-message
// closure. The epochs captured at send time fence it across a rollback.
type delivery struct {
	src, dst *Proc
	epS, epD uint64
	m        *protocol.Message
}

// Fire drops a delivery whose sender or receiver rolled back since the
// send, and otherwise hands the message to the receiver. The record is
// released first, so the receiver's own sends can reuse it.
func (d *delivery) Fire() {
	src, dst, m := d.src, d.dst, d.m
	stale := src.epoch != d.epS || dst.epoch != d.epD
	dst.c.releaseDelivery(d)
	if stale {
		dst.c.metrics.StaleDropped++
		return
	}
	dst.receive(m)
}

// send hands m to the transport for delivery from src to process to.
func (c *Cluster) send(src *Proc, to protocol.ProcessID, m *protocol.Message) {
	var d *delivery
	if n := len(c.deliveries); n > 0 {
		d, c.deliveries = c.deliveries[n-1], c.deliveries[:n-1]
	} else {
		if len(c.deliverySlab) == 0 {
			c.deliverySlab = make([]delivery, 256)
		}
		d, c.deliverySlab = &c.deliverySlab[0], c.deliverySlab[1:]
	}
	dst := c.procs[to]
	*d = delivery{src: src, dst: dst, epS: src.epoch, epD: dst.epoch, m: m}
	c.transport.Unicast(src.id, to, m.Size, d)
}

// releaseDelivery recycles a fired delivery record when the transport
// fires each record at most once (see pooling).
func (c *Cluster) releaseDelivery(d *delivery) {
	if !c.pooling {
		return
	}
	*d = delivery{}
	c.deliveries = append(c.deliveries, d)
}

// firstFailed returns the lowest-numbered fail-stopped process, or -1.
func (c *Cluster) firstFailed() protocol.ProcessID {
	for _, p := range c.procs {
		if p.down {
			return p.id
		}
	}
	return -1
}

// ResetOwners clears the SingleInitiation slot. The recovery executor
// calls it after a coordinated rollback: any instance that was in flight
// belongs to the discarded execution.
func (c *Cluster) ResetOwners() { c.owner = -1 }
