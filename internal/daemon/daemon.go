package daemon

import (
	"bufio"
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mutablecp/internal/algorithms"
	"mutablecp/internal/checkpoint"
	"mutablecp/internal/chunkstore"
	"mutablecp/internal/protocol"
	"mutablecp/internal/stable"
	"mutablecp/internal/trace"
	"mutablecp/internal/wire"
	"mutablecp/internal/workload"
)

// mailbox is an unbounded FIFO queue feeding the daemon's event loop —
// the same single-threaded engine discipline simrt's event kernel gives,
// so protocol.Engine runs unmodified: every engine call happens on the
// loop goroutine, in message-arrival order.
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

// ErrStopped is returned by operations issued against a stopping daemon.
var ErrStopped = errors.New("daemon: stopped")

// Daemon is one process of a multi-process cluster: an OS process
// running one protocol engine over an on-disk stable store and TCP
// channels to every peer.
type Daemon struct {
	cfg   *Config
	id    int
	n     int
	inc   int64
	start time.Time

	newEngine func(env protocol.Env) protocol.Engine
	engine    protocol.Engine
	mb        *mailbox

	// ckpt is the checkpoint lifecycle over store and, with
	// Config.PayloadBytes, the payload chunk store. Only the loop calls it;
	// store and payload are kept for their metrics, audits and Close.
	ckpt    *checkpoint.Keeper
	store   *stable.Store
	payload *chunkstore.Store

	sessions []*peerSession // nil at d.id

	dataLn net.Listener
	ctlLn  net.Listener

	// Computation bookkeeping; loop-goroutine only.
	sentTo   []uint64
	recvFrom []uint64

	// Instance tracking; loop-goroutine only. heldCommits are the frames
	// announcing an own commit, which wait for the instance's
	// CheckpointingDone (see transmit).
	doneCh      chan bool
	lastDone    *bool
	abortTimer  *time.Timer
	commits     uint64
	aborts      uint64
	heldCommits []func()
	// sentHook, when set (tests, on the loop), sees every frame as it is
	// handed to its peer's session.
	sentHook func(kind protocol.Kind, trig protocol.Trigger)

	logger *log.Logger

	// conns holds every accepted connection for as long as its serve
	// goroutine runs, so Stop can close them.
	connsMu sync.Mutex
	conns   map[net.Conn]struct{}

	// running is set once the event loop serves the control plane; until
	// then the control listener answers from the store (bootControl).
	running atomic.Bool

	wg        sync.WaitGroup
	loopWG    sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
	stopReq   chan struct{}
	stopOnce  sync.Once
}

var _ protocol.Env = (*Daemon)(nil)

// New builds and starts one daemon for cfg.Nodes[id]: it recovers its
// stable store, binds its control listener, settles any tentative
// checkpoint in doubt with its initiator, restores the engine from the
// newest permanent checkpoint, binds its peer listener, and begins
// dialing peers. WaitClusterReady is the readiness barrier; call Stop to
// shut down. A tentative whose initiator cannot settle it fails New with
// *ErrInDoubt.
func New(cfg *Config, id int) (*Daemon, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nc, ok := cfg.Node(id)
	if !ok {
		return nil, fmt.Errorf("daemon: node %d not in config", id)
	}
	algo := cfg.Algorithm
	if algo == "" {
		algo = algorithms.Mutable
	}
	newEngine, err := algorithms.New(algo)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		cfg:       cfg,
		id:        id,
		n:         cfg.N(),
		inc:       bootIncarnation(),
		start:     time.Now(),
		newEngine: newEngine,
		mb:        newMailbox(),
		conns:     make(map[net.Conn]struct{}),
		logger:    log.New(os.Stderr, fmt.Sprintf("mcpd[P%d] ", id), log.LstdFlags|log.Lmicroseconds),
		closed:    make(chan struct{}),
		stopReq:   make(chan struct{}),
	}

	dir := cfg.StoreDir(id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("daemon: store dir: %w", err)
	}
	d.store, err = stable.Open(dir, protocol.ProcessID(id), d.n, cfg.StoreOptions())
	if err != nil {
		return nil, fmt.Errorf("daemon: open store: %w", err)
	}
	var pview checkpoint.PayloadStore
	var image func(protocol.ProcessID) []byte
	if cfg.PayloadBytes > 0 {
		opts := cfg.ChunkOptions()
		d.payload, err = chunkstore.Open(chunkstore.Dir(dir), opts)
		if err != nil {
			d.store.Close() //nolint:errcheck
			return nil, fmt.Errorf("daemon: open payload store: %w", err)
		}
		pview = d.payload.Proc(d.ID())
		profile, _ := workload.ParseImageProfile(cfg.PayloadProfile)
		images := workload.NewImages(workload.ImagesConfig{
			Procs:     1,
			Bytes:     cfg.PayloadBytes,
			PageBytes: opts.ChunkBytes,
			Profile:   profile,
			Seed:      uint64(id) + 1,
		})
		image = func(protocol.ProcessID) []byte { return images.Image(0) }
	}
	d.ckpt = checkpoint.NewKeeper(d.ID(), d.store, pview, image)
	// The control plane comes up before in-doubt resolution: a peer
	// restarting at the same time may be waiting on this store's answer
	// while this daemon waits on its (bootControl).
	d.ctlLn, err = net.Listen("tcp", nc.CtlAddr)
	if err != nil {
		d.closeStores()
		return nil, fmt.Errorf("daemon: listen %s: %w", nc.CtlAddr, err)
	}
	d.wg.Add(1)
	go func() { defer d.wg.Done(); d.acceptControl() }()
	if err := d.resolveInDoubt(); err != nil {
		return nil, d.abortBoot(err)
	}
	if err := d.restoreFromStore(); err != nil {
		return nil, d.abortBoot(err)
	}
	d.dataLn, err = net.Listen("tcp", nc.Addr)
	if err != nil {
		return nil, d.abortBoot(fmt.Errorf("daemon: listen %s: %w", nc.Addr, err))
	}

	d.sessions = make([]*peerSession, d.n)
	for _, peer := range cfg.Nodes {
		if peer.ID == id {
			continue
		}
		d.sessions[peer.ID] = newPeerSession(d, peer.ID, peer.Addr)
	}

	d.loopWG.Add(1)
	go func() {
		defer d.loopWG.Done()
		d.loop()
	}()
	d.running.Store(true)
	d.wg.Add(2)
	go func() { defer d.wg.Done(); d.acceptData() }()
	go func() { defer d.wg.Done(); d.dialPeers() }()
	return d, nil
}

// abortBoot undoes a New that failed after the control listener came up:
// it stops serving, waits for the control goroutines and closes the
// stores, then returns err.
func (d *Daemon) abortBoot(err error) error {
	close(d.closed)
	d.ctlLn.Close() //nolint:errcheck
	d.closeConns()
	d.wg.Wait()
	d.closeStores()
	return err
}

// dialPeers drives the bootstrap handshakes in the background, all peers
// at once. Every daemon listens before it dials, so of any two the later
// starter's dial finds the earlier one listening, and the earlier one
// answers that hello by dialing back at once (peerSession.peerAlive): the
// cluster converges on the first pass whatever the start order. The retry
// pass is a safety net for a dial that failed for some other reason. Once
// every handshake has completed the loop exits; a later break is repaired
// by the next send, and a restarted peer's hello by the same rule.
func (d *Daemon) dialPeers() {
	for {
		var wg sync.WaitGroup
		for _, s := range d.sessions {
			if s == nil || s.ready() {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.link.Connect() //nolint:errcheck // retried on the next pass
			}()
		}
		wg.Wait()
		if d.Ready() {
			return
		}
		select {
		case <-d.closed:
			return
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// ErrInDoubt is New's error when a tentative checkpoint's instance
// cannot be settled: its initiator, the one process that decides it
// (§3.6), stayed unreachable or undecided for 2 × RequestTimeout. This is
// two-phase commit's blocking case. The store is left as it was, and New
// succeeds once the initiator answers.
type ErrInDoubt struct {
	Trigger protocol.Trigger
	// Last is the last failure to reach the initiator, nil if it was
	// reached and answered pending.
	Last error
}

func (e *ErrInDoubt) Error() string {
	msg := fmt.Sprintf("daemon: tentative checkpoint %+v is in doubt: initiator P%d did not settle it", e.Trigger, e.Trigger.Pid)
	if e.Last != nil {
		msg += ": " + e.Last.Error()
	}
	return msg
}

func (e *ErrInDoubt) Unwrap() error { return e.Last }

// resolveInDoubt settles tentative checkpoints that survived a crash,
// before restoreFromStore drops them. Dropping is wrong in exactly one
// race: this daemon persisted and acked the tentative, the initiator
// committed the instance, and the crash landed before the commit
// broadcast was processed here. So each tentative's initiator is asked
// (resolve), and answers from the outcomes its own store keeps: a
// commit promotes the tentative here too, an abort leaves it to be
// dropped, and pending — or no answer — is asked again until the
// deadline, then fails the boot with ErrInDoubt. Every answer is known
// before the store is touched. A tentative whose trigger names this
// daemon is of its own instance (the core engine names an instance by its
// initiator) and needs no question: the initiator logs its commit before
// announcing it
// (transmit), so an own tentative with no commit record never committed,
// and restoreFromStore's drop is the abort.
func (d *Daemon) resolveInDoubt() error {
	deadline := time.Now().Add(2 * d.cfg.RequestTimeout())
	var promote []protocol.Trigger
	for _, trig := range d.store.TentativeTriggers() {
		if trig.Pid == d.id {
			continue
		}
		out, err := d.askInitiator(trig, deadline)
		if err != nil {
			return err
		}
		if out == OutcomeCommitted {
			promote = append(promote, trig)
		}
	}
	for _, trig := range promote {
		d.logf("promoting in-doubt tentative %+v: its initiator committed the instance", trig)
		if err := d.ckpt.CommitInDoubt(trig, d.Now()); err != nil {
			return fmt.Errorf("daemon: promote in-doubt tentative: %w", err)
		}
	}
	return nil
}

// askInitiator asks trig's initiator how the instance ended, again and
// again while it is unreachable or still deciding, until deadline.
func (d *Daemon) askInitiator(trig protocol.Trigger, deadline time.Time) (Outcome, error) {
	nc, ok := d.cfg.Node(trig.Pid)
	if !ok {
		return 0, fmt.Errorf("daemon: tentative checkpoint %+v names no node", trig)
	}
	ask := func() (Outcome, error) {
		cl, err := Dial(nc.CtlAddr)
		if err != nil {
			return 0, err
		}
		defer cl.Close() //nolint:errcheck
		return cl.Resolve(trig)
	}
	var out Outcome
	var err error
	if pollUntil(deadline, nil, func() bool {
		out, err = ask()
		return err == nil && out != OutcomePending
	}) != nil {
		return 0, &ErrInDoubt{Trigger: trig, Last: err}
	}
	return out, nil
}

// restoreFromStore aligns in-memory state with the on-disk store: stale
// tentatives from a crashed instance are dropped (they never committed;
// the initiator's §3.6 timeout aborted the instance for the survivors),
// counters resume from the newest permanent checkpoint, and the engine
// restarts its numbering past every own instance the store has decided
// — a dropped one included, so no trigger ever names two instances.
func (d *Daemon) restoreFromStore() error {
	d.ckpt.Crash()
	dropped, err := d.ckpt.DropTentatives()
	for _, trig := range dropped {
		d.logf("dropped stale tentative checkpoint %+v from before restart", trig)
	}
	if err != nil {
		return fmt.Errorf("daemon: drop stale tentatives: %w", err)
	}
	if d.payload != nil {
		if err := d.payload.Verify(d.ID()); err != nil {
			return fmt.Errorf("daemon: payload audit after restart: %w", err)
		}
	}
	perm := d.store.Permanent()
	d.sentTo = append([]uint64(nil), protocol.PadCounters(perm.State.SentTo, d.n)...)
	d.recvFrom = append([]uint64(nil), protocol.PadCounters(perm.State.RecvFrom, d.n)...)
	d.engine = d.newEngine(d)
	if csn := max(perm.State.CSN, d.store.Outcomes().Decided); csn > 0 {
		if r, ok := d.engine.(protocol.CheckpointRestorer); ok {
			r.RestoreFromCheckpoint(csn)
		}
	}
	return nil
}

// ID returns this daemon's process ID.
func (d *Daemon) ID() protocol.ProcessID { return protocol.ProcessID(d.id) }

// Addr returns the bound peer-traffic address (resolved port).
func (d *Daemon) Addr() string { return d.dataLn.Addr().String() }

// CtlAddr returns the bound control address.
func (d *Daemon) CtlAddr() string { return d.ctlLn.Addr().String() }

func (d *Daemon) logf(format string, args ...any) { d.logger.Printf(format, args...) }

func (d *Daemon) loop() {
	for {
		fn, ok := d.mb.get()
		if !ok {
			return
		}
		fn()
	}
}

// onLoop runs fn on the event loop and waits for it (control plane).
func (d *Daemon) onLoop(fn func()) error {
	done := make(chan struct{})
	d.mb.put(func() { fn(); close(done) })
	select {
	case <-done:
		return nil
	case <-d.closed:
		// Drain race: the closure may still run if it was queued before
		// close; give it a moment so callers see its effects.
		select {
		case <-done:
			return nil
		case <-time.After(100 * time.Millisecond):
			return ErrStopped
		}
	}
}

// --- data plane ---

func (d *Daemon) acceptData() {
	for {
		conn, err := d.dataLn.Accept()
		if err != nil {
			return
		}
		d.serveConn(conn, d.serveData)
	}
}

// serveConn runs serve on an accepted connection in its own goroutine.
// The connection is in d.conns for exactly as long, so Stop can close
// what is still open and nothing accumulates over the daemon's lifetime.
func (d *Daemon) serveConn(conn net.Conn, serve func(net.Conn)) {
	d.connsMu.Lock()
	select {
	case <-d.closed: // accepted as Stop swept d.conns: nobody else would close it
		d.connsMu.Unlock()
		conn.Close() //nolint:errcheck
		return
	default:
	}
	d.conns[conn] = struct{}{}
	d.connsMu.Unlock()
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		serve(conn)
		d.connsMu.Lock()
		delete(d.conns, conn)
		d.connsMu.Unlock()
	}()
}

// serveData handles one inbound peer connection: hello/welcome
// handshake, then a stream of data and ack envelopes. Every envelope is
// read through one buffer, so a burst costs one read(2), not two or three
// per envelope (length, fixed header, body).
func (d *Daemon) serveData(conn net.Conn) {
	defer conn.Close()                                     //nolint:errcheck
	conn.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	in := bufio.NewReader(conn)
	var hello envelope
	if err := readEnvelope(in, &hello); err != nil {
		return
	}
	if hello.Kind != envHello || hello.Src < 0 || hello.Src >= d.n || hello.Src == d.id {
		d.logf("rejecting connection from %s: bad hello %+v", conn.RemoteAddr(), hello)
		return
	}
	conn.SetReadDeadline(time.Time{}) //nolint:errcheck
	// The rule first, the welcome second: when the peer's handshake
	// returns, our socket to its previous incarnation is already gone.
	s := d.sessions[hello.Src]
	s.peerAlive(hello.Inc)
	welcome := envelope{Kind: envHello, Src: d.id, Inc: d.inc}
	if err := writeEnvelope(conn, &welcome); err != nil {
		return
	}

	deliver := func(body []byte) {
		m, err := wire.DecodeMessage(body)
		if err != nil {
			d.logf("P%d sent an undecodable frame: %v", hello.Src, err)
			return
		}
		d.mb.put(func() { d.engine.HandleMessage(m) })
	}
	for {
		var e envelope
		if err := readEnvelope(in, &e); err != nil {
			return // connection broke; the peer re-dials
		}
		switch e.Kind {
		case envData:
			s.accept(e, deliver)
		case envAck:
			s.onAck(e.Gen, e.Cum)
		}
	}
}

// Every wait for a condition (readiness, quiescence, an initiator's
// answer) polls from readyPollMin and backs off to readyPollMax: one that
// converges in a few milliseconds is not quantised to the cap, one that
// takes seconds is not hammered.
const (
	readyPollMin = time.Millisecond
	readyPollMax = 25 * time.Millisecond
)

var errExpired = errors.New("daemon: deadline passed")

// pollUntil calls try, with the backoff above between calls, until it
// reports done (nil), the deadline passes first (errExpired), or stop is
// closed (ErrStopped). A nil stop never closes.
func pollUntil(deadline time.Time, stop <-chan struct{}, try func() bool) error {
	for poll := readyPollMin; !try(); poll = min(2*poll, readyPollMax) {
		if time.Now().After(deadline) {
			return errExpired
		}
		select {
		case <-stop:
			return ErrStopped
		case <-time.After(poll):
		}
	}
	return nil
}

// Ready reports whether every peer handshake has completed.
func (d *Daemon) Ready() bool {
	for _, s := range d.sessions {
		if s != nil && !s.ready() {
			return false
		}
	}
	return true
}

// --- lifecycle ---

// StopRequested is closed when a control client asked for shutdown.
func (d *Daemon) StopRequested() <-chan struct{} { return d.stopReq }

func (d *Daemon) requestStop() { d.stopOnce.Do(func() { close(d.stopReq) }) }

// Stop shuts the daemon down gracefully: listeners close, the event
// loop drains, per-peer writers flush their queues, and the stable store
// is fsynced shut.
func (d *Daemon) Stop() {
	d.closeOnce.Do(func() {
		close(d.closed)
		d.dataLn.Close() //nolint:errcheck
		d.ctlLn.Close()  //nolint:errcheck
		d.closeConns()
		d.mb.close()
		d.loopWG.Wait() // loop drains queued events before exiting
		for _, s := range d.sessions {
			if s != nil {
				s.close() // flushes the writer's queue
			}
		}
		d.wg.Wait()
		d.closeStores()
	})
}

// closeConns closes every connection still being served; each serve
// goroutine then returns and forgets its connection.
func (d *Daemon) closeConns() {
	d.connsMu.Lock()
	defer d.connsMu.Unlock()
	for c := range d.conns {
		c.Close() //nolint:errcheck
	}
}

// closeStores closes the stable store and, when present, the payload
// chunk store.
func (d *Daemon) closeStores() {
	if err := d.store.Close(); err != nil {
		d.logf("store close: %v", err)
	}
	if d.payload != nil {
		if err := d.payload.Close(); err != nil {
			d.logf("payload store close: %v", err)
		}
	}
}

// --- operations (control plane entry points) ---

// Checkpoint initiates a checkpointing instance here and waits for it to
// terminate; it reports whether the instance committed. The §3.6 request
// timeout is armed so a dead participant aborts the instance instead of
// wedging it; waitTimeout (> the request timeout) bounds the wait itself.
func (d *Daemon) Checkpoint(waitTimeout time.Duration) (bool, error) {
	result := make(chan bool, 1)
	errCh := make(chan error, 1)
	d.mb.put(func() {
		if err := d.engine.Initiate(); err != nil {
			errCh <- err
			return
		}
		d.armRequestTimeout()
		// Subscribe after Initiate so a synchronous completion (already
		// recorded in lastDone) is not missed.
		if d.lastDone != nil {
			result <- *d.lastDone
			d.lastDone = nil
			return
		}
		d.doneCh = result
	})
	select {
	case err := <-errCh:
		return false, err
	case committed := <-result:
		return committed, nil
	case <-time.After(waitTimeout):
		return false, fmt.Errorf("daemon: checkpoint at P%d timed out after %v", d.id, waitTimeout)
	case <-d.closed:
		return false, ErrStopped
	}
}

// armRequestTimeout schedules the §3.6 give-up: if the instance is still
// in progress when it fires, the initiator aborts it (exactly what simrt
// does in virtual time). Loop goroutine only.
func (d *Daemon) armRequestTimeout() {
	d.cancelRequestTimeout()
	d.abortTimer = time.AfterFunc(d.cfg.RequestTimeout(), func() {
		d.mb.put(func() {
			if !d.engine.InProgress() {
				return
			}
			if a, ok := d.engine.(protocol.Initiator); ok {
				d.logf("request timeout: aborting in-progress instance")
				if err := a.AbortCurrent(); err != nil {
					d.logf("abort failed: %v", err)
				}
			}
		})
	})
}

func (d *Daemon) cancelRequestTimeout() {
	if d.abortTimer != nil {
		d.abortTimer.Stop()
		d.abortTimer = nil
	}
}

// SendApp queues one application message to a peer (cluster traffic).
func (d *Daemon) SendApp(to protocol.ProcessID, payload []byte) error {
	if to < 0 || int(to) >= d.n || int(to) == d.id {
		return fmt.Errorf("daemon: bad destination P%d", to)
	}
	d.mb.put(func() { d.sendApp(to, payload) })
	return nil
}

// Rollback restores this daemon to its newest permanent checkpoint: the
// counters rewind, stale tentatives drop, and the engine is rebuilt with
// its numbering aligned — the per-process half of a cluster-wide
// recovery (mcpctl recover drives it on every survivor after a restart).
func (d *Daemon) Rollback() error {
	var rerr error
	err := d.onLoop(func() {
		d.cancelRequestTimeout()
		rerr = d.restoreFromStore()
	})
	if err != nil {
		return err
	}
	return rerr
}

// PermanentState returns the newest permanent checkpoint's state.
func (d *Daemon) PermanentState() (protocol.State, error) {
	var st protocol.State
	err := d.onLoop(func() { st = d.store.Permanent().State.Clone() })
	return st, err
}

func (d *Daemon) sendApp(to protocol.ProcessID, payload []byte) {
	m := &protocol.Message{From: d.ID(), To: to, Payload: payload}
	d.engine.PrepareSend(m)
	d.sentTo[to]++
	d.transmit(m)
}

func (d *Daemon) transmit(m *protocol.Message) {
	s := d.sessions[m.To]
	if s == nil {
		d.logf("dropping message to nonexistent P%d", m.To)
		return
	}
	frame, err := wire.AppendMessage(nil, m)
	if err != nil {
		d.logf("encode to P%d: %v", m.To, err)
		return
	}
	kind, trig := m.Kind, m.Trigger
	send := func() {
		if d.sentHook != nil {
			d.sentHook(kind, trig)
		}
		s.sendFrame(frame)
	}
	if kind == protocol.KindCommit && trig.Pid == d.ID() {
		// The decision is logged before it is announced: the core engine
		// (the only one mcpd runs, Config.Validate) sends its commit
		// before it calls MakePermanent, so the frames wait for
		// CheckpointingDone, which follows that write. No peer can hold a
		// commit the initiator's store does not, which is what lets
		// resolve ask the initiator alone.
		d.heldCommits = append(d.heldCommits, send)
		return
	}
	// Every other frame follows the writes the engine made before it:
	// each Keeper call has returned, its record in the store, before the
	// engine's next action.
	send()
}

// --- protocol.Env (loop goroutine only) ---

// N implements protocol.Env.
func (d *Daemon) N() int { return d.n }

// Now implements protocol.Env.
func (d *Daemon) Now() time.Duration { return time.Since(d.start) }

// Send implements protocol.Env.
func (d *Daemon) Send(m *protocol.Message) {
	m.From = d.ID()
	d.transmit(m)
}

// Broadcast implements protocol.Env.
func (d *Daemon) Broadcast(m *protocol.Message) {
	m.From = d.ID()
	for to := 0; to < d.n; to++ {
		if to == d.id {
			continue
		}
		cp := *m
		cp.To = protocol.ProcessID(to)
		d.transmit(&cp)
	}
}

// CaptureState implements protocol.Env.
func (d *Daemon) CaptureState() protocol.State {
	return protocol.State{
		Proc:     d.ID(),
		SentTo:   append([]uint64(nil), d.sentTo...),
		RecvFrom: append([]uint64(nil), d.recvFrom...),
		At:       d.Now(),
	}
}

// SaveTentative implements protocol.Env.
func (d *Daemon) SaveTentative(s protocol.State, trig protocol.Trigger) {
	d.saveTentative(s, trig, d.ckpt.Image())
}

func (d *Daemon) saveTentative(s protocol.State, trig protocol.Trigger, img []byte) {
	_, err := d.ckpt.SaveTentative(s, trig, d.Now(), img)
	d.must(err)
}

// SaveMutable implements protocol.Env.
func (d *Daemon) SaveMutable(s protocol.State, trig protocol.Trigger) {
	d.must(d.ckpt.SaveMutable(s, trig, d.Now()))
}

// PromoteMutable implements protocol.Env: the mutable record and its
// frozen image become the tentative checkpoint.
func (d *Daemon) PromoteMutable(trig protocol.Trigger) {
	rec, img, err := d.ckpt.TakeMutable(trig)
	d.must(err)
	d.saveTentative(rec.State, trig, img)
}

// DiscardMutable implements protocol.Env.
func (d *Daemon) DiscardMutable(trig protocol.Trigger) {
	d.must(d.ckpt.DiscardMutable(trig))
}

// MakePermanent implements protocol.Env.
func (d *Daemon) MakePermanent(trig protocol.Trigger) {
	d.must(d.ckpt.Commit(trig, d.Now()))
}

// DropTentative implements protocol.Env.
func (d *Daemon) DropTentative(trig protocol.Trigger) {
	d.must(d.ckpt.Drop(trig))
}

// must is the daemon's one answer to a checkpoint-storage error: a
// daemon that cannot keep its checkpoints is dead.
func (d *Daemon) must(err error) {
	if err != nil {
		panic(fmt.Sprintf("mcpd P%d: %v", d.id, err))
	}
}

// DeliverApp implements protocol.Env.
func (d *Daemon) DeliverApp(m *protocol.Message) {
	d.recvFrom[m.From]++
}

// BlockApp implements protocol.Env. No engine mcpd runs blocks the
// application: Config.Validate admits only daemonAlgorithms.
func (d *Daemon) BlockApp() { panic("daemon: BlockApp from an engine Config.Validate refuses") }

// UnblockApp implements protocol.Env; see BlockApp.
func (d *Daemon) UnblockApp() { panic("daemon: UnblockApp from an engine Config.Validate refuses") }

// CheckpointingDone implements protocol.Env. On a commit, MakePermanent
// has returned before this callback, so the held commit frames go out
// now, and then the client hears.
func (d *Daemon) CheckpointingDone(trig protocol.Trigger, committed bool) {
	d.cancelRequestTimeout()
	if committed {
		d.commits++
	} else {
		d.aborts++
	}
	for _, send := range d.heldCommits {
		send()
	}
	d.heldCommits = nil
	d.notifyDone(committed)
}

func (d *Daemon) notifyDone(committed bool) {
	if d.doneCh != nil {
		d.doneCh <- committed
		d.doneCh = nil
		return
	}
	v := committed
	d.lastDone = &v
}

// Trace implements protocol.Env (daemons log instead of tracing).
func (d *Daemon) Trace(kind trace.Kind, peer int, format string, args ...any) {}

// Tracing implements protocol.Env.
func (d *Daemon) Tracing() bool { return false }
