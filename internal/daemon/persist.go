package daemon

// The daemon's durability pipeline: stable-store and payload writes run
// on a per-daemon persister goroutine instead of the engine loop, so
// the loop keeps dispatching protocol messages while fsyncs are in
// flight (and concurrent daemons' commits coalesce inside the stores'
// group-commit path).
//
// The ordering contract is the ordered-ack invariant: no protocol
// action may overtake the durability point it depends on.
//
//   - Jobs run strictly in submission order (one goroutine, FIFO
//     channel), so the store sees the exact sequence the engine
//     produced: a trigger's tentative always precedes its commit.
//   - Every action the engine takes *after* a persistence call — an
//     outbound message, the client-visible checkpoint completion — is
//     gated behind the newest submitted job: it is queued on the loop
//     and released only when the persister's completion ack (posted
//     back through the mailbox, hence ordered) covers that job. The
//     wire and the client can never observe an effect whose durable
//     cause is still in flight, which is exactly the guarantee the
//     synchronous path gave.
//   - Loop-side store reads (rollback, resolve, metrics, the store
//     audit) drain the pipeline first, so they observe a quiescent
//     store. The §3.6 request timeout and the incarnation handshake
//     are untouched: both live on the loop/transport side and never
//     read the store.
//
// A job returns its storage error, and the persister hands it to
// Daemon.must, the same crash a volatile-half error on the loop takes.

type persistJob struct {
	seq uint64
	fn  func() error
}

// pendingAction is a loop action gated on a persister watermark.
type pendingAction struct {
	seq  uint64
	fire func()
}

// startPersister launches the persister goroutine. Called once in New,
// before the loop starts.
func (d *Daemon) startPersister() {
	d.persistCh = make(chan persistJob, 256)
	d.persistWG.Add(1)
	go func() {
		defer d.persistWG.Done()
		for job := range d.persistCh {
			d.must(job.fn())
			seq := job.seq
			d.mb.put(func() { d.persistComplete(seq) })
		}
	}()
}

// stopPersister closes the job channel and waits for the queue to
// drain. Called from Stop after the loop has exited (no more submits).
func (d *Daemon) stopPersister() {
	close(d.persistCh)
	d.persistWG.Wait()
}

// submitPersist queues fn for ordered execution on the persister.
// Loop goroutine only.
func (d *Daemon) submitPersist(fn func() error) {
	d.persistSeq++
	d.persistCh <- persistJob{seq: d.persistSeq, fn: fn}
}

// persistComplete advances the durability watermark and releases every
// action gated at or below it. Runs on the loop via the mailbox, so
// acks are processed in completion (= submission) order.
func (d *Daemon) persistComplete(seq uint64) {
	if seq <= d.persistAck {
		return // a drain barrier already covered this job
	}
	d.persistAck = seq
	d.flushPending()
}

func (d *Daemon) flushPending() {
	i := 0
	for ; i < len(d.pendActs) && d.pendActs[i].seq <= d.persistAck; i++ {
		d.pendActs[i].fire()
	}
	if i > 0 {
		d.pendActs = append(d.pendActs[:0], d.pendActs[i:]...)
	}
}

// afterDurable runs fire once every job submitted so far has completed
// — immediately when the pipeline is idle. Loop goroutine only; fire
// runs on the loop and must not re-enter afterDurable's gating (the
// deferred forms call the session/notify primitives directly).
func (d *Daemon) afterDurable(fire func()) {
	if d.persistSeq == d.persistAck {
		fire()
		return
	}
	d.pendActs = append(d.pendActs, pendingAction{seq: d.persistSeq, fire: fire})
}

// drainPersister blocks the loop until every submitted job has been
// applied, then releases everything gated on them. Loop goroutine
// only; used by control-plane reads and rollback, which must observe a
// quiescent store.
func (d *Daemon) drainPersister() {
	if d.persistSeq == d.persistAck && len(d.pendActs) == 0 {
		return
	}
	done := make(chan struct{})
	d.persistSeq++
	d.persistCh <- persistJob{seq: d.persistSeq, fn: func() error { close(done); return nil }}
	<-done
	d.persistAck = d.persistSeq
	d.flushPending()
}
