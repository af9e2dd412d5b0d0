// Package livenet runs the checkpointing engines as a real concurrent
// system: one goroutine per process, messages over in-memory channels with
// reliable FIFO delivery, wall-clock time. It exists alongside the
// discrete-event runtime (internal/simrt) so the same engine code that
// reproduces the paper's virtual-time experiments also demonstrably works
// as a live distributed system — the examples build on this package.
package livenet

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"mutablecp/internal/checkpoint"
	"mutablecp/internal/protocol"
	"mutablecp/internal/trace"
)

// Config describes a live cluster.
type Config struct {
	// N is the number of processes.
	N int
	// NewEngine builds the checkpointing algorithm for one process.
	NewEngine func(env protocol.Env) protocol.Engine
	// Delay, when positive, adds an artificial network delay per message
	// (makes races observable in demos). In-memory transport only: NewTCP
	// rejects it.
	Delay time.Duration
	// Trace, when non-nil, records structured events.
	Trace *trace.Log
	// OnDeliver observes computation-message deliveries.
	OnDeliver func(to, from protocol.ProcessID, payload []byte)

	// TCP mesh tuning (NewTCP clusters only; zero takes the defaults in
	// tcp.go).
	//
	// TCPWriteTimeout bounds each frame write so a wedged peer cannot
	// block a sender's event loop (default 5 s).
	TCPWriteTimeout time.Duration
	// TCPReadIdleTimeout, when positive, drops inbound connections that
	// stay silent longer than this; the sender re-dials on its next write.
	// Zero (the default) never idles a connection out.
	TCPReadIdleTimeout time.Duration
	// TCPMaxReconnects bounds the re-dial attempts one send makes on a
	// broken connection, with exponential backoff between attempts
	// (default 5).
	TCPMaxReconnects int
}

// mailbox is an unbounded FIFO queue feeding a node's event loop. Senders
// never block, which rules out inbox-exhaustion deadlocks between nodes.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []func()
	closed bool
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) put(fn func()) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed {
		return
	}
	mb.queue = append(mb.queue, fn)
	mb.cond.Signal()
}

// get blocks for the next event; ok=false after close and drain.
func (mb *mailbox) get() (func(), bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for len(mb.queue) == 0 && !mb.closed {
		mb.cond.Wait()
	}
	if len(mb.queue) == 0 {
		return nil, false
	}
	fn := mb.queue[0]
	mb.queue = mb.queue[1:]
	return fn, true
}

func (mb *mailbox) close() {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.closed = true
	mb.cond.Broadcast()
}

// Cluster is a running set of live nodes.
type Cluster struct {
	cfg   Config
	nodes []*Node
	start time.Time
	wg    sync.WaitGroup

	// mesh is non-nil for TCP-backed clusters (NewTCP).
	mesh *tcpMesh

	mu       sync.Mutex
	doneSubs map[protocol.Trigger][]chan bool
}

// New builds and starts a live cluster. Call Close to stop it.
func New(cfg Config) (*Cluster, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("livenet: need at least 2 processes, got %d", cfg.N)
	}
	if cfg.NewEngine == nil {
		return nil, errors.New("livenet: Config.NewEngine is required")
	}
	c := &Cluster{
		cfg:      cfg,
		start:    time.Now(),
		doneSubs: make(map[protocol.Trigger][]chan bool),
	}
	c.nodes = make([]*Node, cfg.N)
	for i := 0; i < cfg.N; i++ {
		c.nodes[i] = newNode(c, i)
	}
	for _, n := range c.nodes {
		n.engine = cfg.NewEngine(n)
	}
	for _, n := range c.nodes {
		n := n
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			n.loop()
		}()
	}
	return c, nil
}

// N returns the number of processes.
func (c *Cluster) N() int { return c.cfg.N }

// Node returns process i's runtime.
func (c *Cluster) Node(i protocol.ProcessID) *Node { return c.nodes[i] }

// Close stops every node and waits for the event loops to exit.
func (c *Cluster) Close() {
	if c.mesh != nil {
		c.mesh.close()
	}
	for _, n := range c.nodes {
		n.mb.close()
	}
	c.wg.Wait()
}

// Send sends one computation message (asynchronously).
func (c *Cluster) Send(from, to protocol.ProcessID, payload []byte) error {
	if from == to || from < 0 || from >= c.cfg.N || to < 0 || to >= c.cfg.N {
		return fmt.Errorf("livenet: bad send %d->%d", from, to)
	}
	n := c.nodes[from]
	n.mb.put(func() { n.sendApp(to, payload) })
	return nil
}

// Checkpoint triggers a checkpointing instance at the given process and
// waits for it to terminate (or the timeout to expire). It returns whether
// the instance committed.
func (c *Cluster) Checkpoint(initiator protocol.ProcessID, timeout time.Duration) (bool, error) {
	if initiator < 0 || initiator >= c.cfg.N {
		return false, fmt.Errorf("livenet: bad initiator %d", initiator)
	}
	n := c.nodes[initiator]
	result := make(chan bool, 1)
	errCh := make(chan error, 1)
	n.mb.put(func() {
		if err := n.engine.Initiate(); err != nil {
			errCh <- err
			return
		}
		// Subscribe after Initiate so a synchronous completion (already
		// recorded in n.lastDone) is not missed.
		if n.lastDone != nil {
			result <- *n.lastDone
			n.lastDone = nil
			return
		}
		n.doneCh = result
	})
	select {
	case err := <-errCh:
		return false, err
	case committed := <-result:
		return committed, nil
	case <-time.After(timeout):
		return false, fmt.Errorf("livenet: checkpoint at P%d timed out after %v", initiator, timeout)
	}
}

// Quiesce waits until every node's mailbox has been empty for one full
// settle window (best-effort; for demos and tests).
func (c *Cluster) Quiesce(settle time.Duration) {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if c.allIdle() {
			time.Sleep(settle)
			if c.allIdle() {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
}

func (c *Cluster) allIdle() bool {
	for _, n := range c.nodes {
		n.mb.mu.Lock()
		busy := len(n.mb.queue) > 0 || n.processing
		n.mb.mu.Unlock()
		if busy {
			return false
		}
	}
	return true
}

// PermanentLine returns every process's newest permanent checkpoint state.
func (c *Cluster) PermanentLine() map[protocol.ProcessID]protocol.State {
	out := make(map[protocol.ProcessID]protocol.State, c.cfg.N)
	for _, n := range c.nodes {
		n.storeMu.Lock()
		out[n.id] = n.stable.Permanent().State
		n.storeMu.Unlock()
	}
	return out
}

// Node is one live process.
type Node struct {
	c  *Cluster
	id protocol.ProcessID

	engine protocol.Engine
	mb     *mailbox

	storeMu sync.Mutex
	stable  *checkpoint.StableStore
	mutable *checkpoint.MutableStore

	sentTo   []uint64
	recvFrom []uint64

	blocked bool
	queue   []queued

	doneCh   chan bool
	lastDone *bool

	processing bool
}

type queued struct {
	to      protocol.ProcessID
	payload []byte
}

var _ protocol.Env = (*Node)(nil)

func newNode(c *Cluster, id protocol.ProcessID) *Node {
	return &Node{
		c:        c,
		id:       id,
		mb:       newMailbox(),
		stable:   checkpoint.NewStableStore(id, c.cfg.N),
		mutable:  checkpoint.NewMutableStore(id),
		sentTo:   make([]uint64, c.cfg.N),
		recvFrom: make([]uint64, c.cfg.N),
	}
}

// Engine returns the node's engine (callers must not invoke it directly;
// use the cluster API).
func (n *Node) Engine() protocol.Engine { return n.engine }

// Stable returns the node's stable store; lock-free reads are only safe
// after Close or Quiesce.
func (n *Node) Stable() *checkpoint.StableStore { return n.stable }

// Mutable returns the node's mutable store.
func (n *Node) Mutable() *checkpoint.MutableStore { return n.mutable }

func (n *Node) loop() {
	for {
		fn, ok := n.mb.get()
		if !ok {
			return
		}
		n.mb.mu.Lock()
		n.processing = true
		n.mb.mu.Unlock()
		fn()
		n.mb.mu.Lock()
		n.processing = false
		n.mb.mu.Unlock()
	}
}

func (n *Node) sendApp(to protocol.ProcessID, payload []byte) {
	if n.blocked {
		n.queue = append(n.queue, queued{to: to, payload: payload})
		return
	}
	m := &protocol.Message{From: n.id, To: to, Payload: payload}
	n.engine.PrepareSend(m)
	n.sentTo[to]++
	n.transmit(m)
}

func (n *Node) transmit(m *protocol.Message) {
	if n.c.mesh != nil {
		if err := n.c.mesh.send(n.id, m.To, m); err != nil {
			// The peer is gone (shutdown or failure); the checkpointing
			// protocols tolerate lost peers via abort, so drop and trace.
			n.Trace(trace.KindNote, m.To, "tcp send failed: %v", err)
		}
		return
	}
	dst := n.c.nodes[m.To]
	deliver := func() { dst.mb.put(func() { dst.engine.HandleMessage(m) }) }
	if n.c.cfg.Delay > 0 {
		time.AfterFunc(n.c.cfg.Delay, deliver)
		return
	}
	deliver()
}

// --- protocol.Env ---

// ID implements protocol.Env.
func (n *Node) ID() protocol.ProcessID { return n.id }

// N implements protocol.Env.
func (n *Node) N() int { return n.c.cfg.N }

// Now implements protocol.Env.
func (n *Node) Now() time.Duration { return time.Since(n.c.start) }

// Send implements protocol.Env.
func (n *Node) Send(m *protocol.Message) {
	m.From = n.id
	n.transmit(m)
}

// Broadcast implements protocol.Env.
func (n *Node) Broadcast(m *protocol.Message) {
	m.From = n.id
	for to := 0; to < n.c.cfg.N; to++ {
		if to == n.id {
			continue
		}
		cp := *m
		cp.To = to
		n.transmit(&cp)
	}
}

// CaptureState implements protocol.Env.
func (n *Node) CaptureState() protocol.State {
	return protocol.State{
		Proc:     n.id,
		SentTo:   append([]uint64(nil), n.sentTo...),
		RecvFrom: append([]uint64(nil), n.recvFrom...),
		At:       n.Now(),
	}
}

// SaveTentative implements protocol.Env.
func (n *Node) SaveTentative(s protocol.State, trig protocol.Trigger) {
	n.storeMu.Lock()
	defer n.storeMu.Unlock()
	if err := n.stable.SaveTentative(s, trig, n.Now()); err != nil {
		panic(fmt.Sprintf("livenet P%d: %v", n.id, err))
	}
}

// SaveMutable implements protocol.Env.
func (n *Node) SaveMutable(s protocol.State, trig protocol.Trigger) {
	n.storeMu.Lock()
	defer n.storeMu.Unlock()
	if err := n.mutable.Save(s, trig, n.Now()); err != nil {
		panic(fmt.Sprintf("livenet P%d: %v", n.id, err))
	}
}

// PromoteMutable implements protocol.Env.
func (n *Node) PromoteMutable(trig protocol.Trigger) {
	n.storeMu.Lock()
	defer n.storeMu.Unlock()
	rec, err := n.mutable.Take(trig)
	if err != nil {
		panic(fmt.Sprintf("livenet P%d: %v", n.id, err))
	}
	if err := n.stable.SaveTentative(rec.State, trig, n.Now()); err != nil {
		panic(fmt.Sprintf("livenet P%d: %v", n.id, err))
	}
}

// DiscardMutable implements protocol.Env.
func (n *Node) DiscardMutable(trig protocol.Trigger) {
	n.storeMu.Lock()
	defer n.storeMu.Unlock()
	if _, err := n.mutable.Take(trig); err != nil {
		panic(fmt.Sprintf("livenet P%d: %v", n.id, err))
	}
}

// MakePermanent implements protocol.Env.
func (n *Node) MakePermanent(trig protocol.Trigger) {
	n.storeMu.Lock()
	defer n.storeMu.Unlock()
	if err := n.stable.MakePermanent(trig, n.Now()); err != nil {
		panic(fmt.Sprintf("livenet P%d: %v", n.id, err))
	}
}

// DropTentative implements protocol.Env.
func (n *Node) DropTentative(trig protocol.Trigger) {
	n.storeMu.Lock()
	defer n.storeMu.Unlock()
	if err := n.stable.DropTentative(trig); err != nil {
		panic(fmt.Sprintf("livenet P%d: %v", n.id, err))
	}
}

// DeliverApp implements protocol.Env.
func (n *Node) DeliverApp(m *protocol.Message) {
	n.recvFrom[m.From]++
	if n.c.cfg.OnDeliver != nil {
		n.c.cfg.OnDeliver(n.id, m.From, m.Payload)
	}
}

// BlockApp implements protocol.Env.
func (n *Node) BlockApp() { n.blocked = true }

// UnblockApp implements protocol.Env.
func (n *Node) UnblockApp() {
	if !n.blocked {
		return
	}
	n.blocked = false
	q := n.queue
	n.queue = nil
	for _, s := range q {
		n.sendApp(s.to, s.payload)
	}
}

// CheckpointingDone implements protocol.Env.
func (n *Node) CheckpointingDone(trig protocol.Trigger, committed bool) {
	if n.doneCh != nil {
		n.doneCh <- committed
		n.doneCh = nil
		return
	}
	v := committed
	n.lastDone = &v
}

// Trace implements protocol.Env.
func (n *Node) Trace(kind trace.Kind, peer int, format string, args ...any) {
	if n.c.cfg.Trace == nil {
		return
	}
	n.c.cfg.Trace.Addf(n.Now(), kind, n.id, peer, format, args...)
}

// Tracing implements protocol.Env.
func (n *Node) Tracing() bool { return n.c.cfg.Trace != nil }
