package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mutablecp/internal/daemon"
	"mutablecp/internal/harness"
)

// workload is one set of inputs. layers names the modules it exercises:
// a traced run probes those and reports 0 for the rest.
type workload struct {
	name   string
	layers []string
	run    func(r *run) error
}

var clusterLayers = []string{"daemon", "stable", "relnet", "livenet", "wire", "core"}

var workloads = []workload{
	{"deps8", clusterLayers, commits{spec: clusterSpec{n: 8}, deps: 8}.run},
	{"live8", clusterLayers, commits{spec: clusterSpec{n: 8}, deps: 8, live: true}.run},
	{"payload4", append([]string{"chunkstore"}, clusterLayers...), commits{spec: clusterSpec{n: 4, payloadBytes: 256 << 10}, deps: 4}.run},
	{"restart4", []string{"daemon", "stable", "chunkstore", "wire"}, runRestarts},
	{"sim1k", []string{"core", "simrt", "des"}, runSim},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// warmInstances run before the window opens, so connections, gob type
// descriptors, segment files and the daemons' heaps are past their first
// use when timing starts. Users pay those once per cluster, not per
// checkpoint.
const warmInstances = 20

// commits is the closed-loop initiator of deps8, live8 and payload4: one
// client, the next Checkpoint only after the previous verdict.
type commits struct {
	spec clusterSpec
	deps int  // application sends that build the dependency graph
	live bool // application traffic also runs during the instance
}

// initiator drives instances on one cluster. restart4 uses it too, for
// the commits between its kills.
type initiator struct {
	r       *run
	c       *cluster
	deps    int
	live    bool    // live8: application traffic also runs during the instance
	sender  *sender // live only; attached once the cluster is warm
	payload []byte
	count   int         // instances started, which also rotates the initiator
	lastCSN map[int]int // per daemon: Line().CSN after its last acked commit

	commitMs  []float64
	sendUs    []float64
	quiesceMs []float64
}

func newInitiator(r *run, c *cluster, w commits) *initiator {
	return &initiator{r: r, c: c, deps: w.deps, live: w.live, payload: make([]byte, 64), lastCSN: make(map[int]int)}
}

// checkpoint initiates at daemon id and waits for the verdict. The
// engine refuses while it is still inside an earlier instance; that is
// retried until busyDeadline, after which it is a failure like any
// other. The control plane carries errors as text, so the refusal is
// recognised by its message.
func (c *cluster) checkpoint(id int) (bool, error) {
	limit := time.Now().Add(busyDeadline)
	for {
		var committed bool
		err := c.call(id, func(cl *daemon.Client) (err error) {
			committed, err = cl.Checkpoint(checkpointWait)
			return
		})
		if err == nil || !strings.Contains(err.Error(), "already in progress") || time.Now().After(limit) {
			return committed, err
		}
		time.Sleep(time.Millisecond)
	}
}

// instance runs one checkpoint instance: the seeded sends that give the
// initiator something to depend on, a quiesce so they have all arrived,
// then the timed Checkpoint. It reports the latency and whether the
// instance committed; failures are already counted.
func (in *initiator) instance(tr *tracer, op, parent int) (time.Duration, bool) {
	r, c := in.r, in.c
	n := c.n()
	at := in.count % n
	in.count++
	r.res.Attempted++

	sp := tr.begin("deps.send", op, parent)
	for k := 0; k < in.deps; k++ {
		src := r.rng.Intn(n)
		dst := r.rng.Intn(n - 1)
		if dst >= src {
			dst++
		}
		t := time.Now()
		if err := c.call(src, func(cl *daemon.Client) error { return cl.Send(dst, in.payload) }); err != nil {
			r.fail("send P%d->P%d: %v", src, dst, err)
			return 0, false
		}
		in.sendUs = append(in.sendUs, us(time.Since(t)))
	}
	if in.live {
		// The next initiator takes part in this instance, so it starts its
		// own with dependencies no older than its last checkpoint (see
		// the sender). Warm-up does the same, so the rule already holds
		// for the first instance that carries traffic.
		next := (at + 1) % n
		if err := c.call(next, func(cl *daemon.Client) error { return cl.Send(at, in.payload) }); err != nil {
			r.fail("send P%d->P%d: %v", next, at, err)
			return 0, false
		}
	}
	tr.end(sp)

	sp = tr.begin("quiesce", op, parent)
	t := time.Now()
	if err := c.quiesce(); err != nil {
		r.fail("quiesce: %v", err)
		return 0, false
	}
	in.quiesceMs = append(in.quiesceMs, ms(time.Since(t)))
	tr.end(sp)

	if in.sender != nil {
		in.sender.resume(at)
	}
	sp = tr.begin("checkpoint.rpc", op, parent)
	t = time.Now()
	committed, err := c.checkpoint(at)
	lat := time.Since(t)
	tr.end(sp)
	if in.sender != nil {
		in.sender.pause()
	}
	if err != nil {
		r.fail("checkpoint at P%d: %v", at, err)
		return lat, false
	}
	if !committed {
		r.fail("instance at P%d aborted", at)
		return lat, false
	}
	in.commitMs = append(in.commitMs, ms(lat))

	// No acked commit may be lost: the initiator's permanent line moves
	// forward with every verdict it hands out.
	csn, err := c.lineCSN(at)
	if err != nil {
		r.fail("line at P%d: %v", at, err)
		return lat, false
	}
	if last, seen := in.lastCSN[at]; seen && csn <= last {
		r.fail("P%d acked a commit but its line stayed at csn %d (was %d)", at, csn, last)
		return lat, false
	}
	in.lastCSN[at] = csn
	return lat, true
}

// setUp boots a cluster and warms it, r.p.setups times over; the last
// cluster stays up for the window. Set-up time runs from the first exec
// to the moment the first timed operation could start.
func (r *run) setUp(w commits) (*cluster, *initiator, error) {
	for i := 0; ; i++ {
		t := time.Now()
		c, err := bootCluster(filepath.Join(r.dir, fmt.Sprintf("boot%d", i)), w.spec)
		if err != nil {
			return nil, nil, err
		}
		in := newInitiator(r, c, w)
		for k := 0; k < warmInstances; k++ {
			if _, ok := in.instance(nil, 0, 0); !ok {
				c.stop()
				return nil, nil, fmt.Errorf("warm-up instance %d failed", k)
			}
		}
		r.setups = append(r.setups, time.Since(t).Seconds())
		// Warm-up is neither counted nor sampled.
		r.res.Attempted = 0
		in.commitMs, in.sendUs, in.quiesceMs = nil, nil, nil
		if i == r.p.setups-1 {
			if r.onBoot != nil {
				r.onBoot(c)
			}
			return c, in, nil
		}
		c.stop()
	}
}

// perCommit reports the counters' growth over the window per committed
// instance.
func (r *run) perCommit(d counters) {
	commits := float64(d["daemon.commits"])
	if commits == 0 {
		return
	}
	per := func(key string) float64 { return float64(d[key]) / commits }
	ratio := func(num, den string) float64 {
		if d[den] == 0 {
			return 0
		}
		return float64(d[num]) / float64(d[den])
	}
	// Every participant appends a tentative and a commit record.
	r.set("daemon.participants_per_commit", per("stable.appends")/2)
	r.set("daemon.disk_bytes_per_commit", per("stable.bytes")+per("chunkstore.new_bytes"))
	r.set("daemon.envelopes_per_batch", ratio("daemon.envelopes", "daemon.batches"))
	r.set("stable.appends_per_commit", per("stable.appends"))
	r.set("stable.syncs_per_commit", per("stable.syncs"))
	r.set("stable.bytes_per_commit", per("stable.bytes"))
	r.set("chunkstore.appends_per_commit", per("chunkstore.appends"))
	r.set("chunkstore.syncs_per_commit", per("chunkstore.syncs"))
	r.set("chunkstore.new_bytes_per_logical_byte", ratio("chunkstore.new_bytes", "chunkstore.logical_bytes"))
	if chunks := d["chunkstore.new_chunks"] + d["chunkstore.dedup_chunks"]; chunks > 0 {
		r.set("chunkstore.dedup_chunk_share", float64(d["chunkstore.dedup_chunks"])/float64(chunks))
	}
	r.set("relnet.frames_per_commit", per("relnet.frames"))
	r.set("relnet.retx_per_kframe", 1000*ratio("relnet.retx", "relnet.frames"))
	r.set("relnet.dups_per_kframe", 1000*ratio("relnet.dups", "relnet.frames"))
	r.set("relnet.acks_per_frame", ratio("relnet.acks", "relnet.frames"))
}

// initiatorMetrics reports what the initiator sampled.
func (r *run) initiatorMetrics(in *initiator) {
	r.set("daemon.commit_p50_ms", percentile(in.commitMs, 0.50))
	r.set("daemon.commit_p99_ms", percentile(in.commitMs, 0.99))
	r.set("daemon.send_rtt_us", percentile(in.sendUs, 0.50))
	r.set("harness.quiesce_ms", percentile(in.quiesceMs, 0.50))
}

// auditCluster runs the end-of-run checks every cluster workload shares:
// the live recovery line is orphan-free, and (inside readCounters) every
// payload store passes its own audit.
func (r *run) auditCluster(c *cluster) (counters, error) {
	if err := c.quiesce(); err != nil {
		r.verify("quiesce", err)
		return nil, err
	}
	_, err := daemon.AuditLine(c.cfg)
	r.verify("line.orphan_free", err)
	end, err := c.readCounters()
	r.verify("counters_and_store_audit", err)
	return end, err
}

func (w commits) run(r *run) error {
	c, in, err := r.setUp(w)
	if err != nil {
		return err
	}
	defer c.stop()
	if w.live {
		if in.sender, err = newSender(c.cfg, int64(r.p.seed)+1); err != nil {
			return err
		}
		defer in.sender.stop()
	}
	if err := c.quiesce(); err != nil {
		return err
	}
	begin, err := c.readCounters()
	if err != nil {
		return err
	}
	r.open(c.cpu)
	for op := 1; r.running(); op++ {
		tr := r.tracerFor(op)
		root := tr.begin("op", op, 0)
		lat, ok := in.instance(tr, op, root)
		tr.end(root)
		if ok {
			r.timed(lat, tr != nil)
		}
	}
	r.close(c.peakRSS())

	if in.sender != nil {
		in.sender.stop()
		r.res.Attempted += len(in.sender.latency) + in.sender.errs
		r.res.Failed += in.sender.errs
		r.set("daemon.app_send_p50_us", percentile(in.sender.latency, 0.50))
		r.set("harness.sender_late_p99_ms", percentile(in.sender.late, 0.99))
	}
	r.initiatorMetrics(in)
	if end, err := r.auditCluster(c); err == nil {
		r.perCommit(end.minus(begin))
	}
	if r.p.trace {
		r.probeCluster(c)
	}
	return nil
}

// commitsPerCycle is how many instances restart4 commits between kills,
// so every restart replays a log that has grown since the last one.
const commitsPerCycle = 10

// runRestarts is restart4: commit, kill -9 a rotating victim, re-exec
// it, roll the cluster back and time how long until an instance the
// victim takes part in has committed.
func runRestarts(r *run) error {
	c, in, err := r.setUp(commits{spec: clusterSpec{n: 4, payloadBytes: 64 << 10}, deps: 4})
	if err != nil {
		return err
	}
	defer c.stop()
	var bootMs, rollbackMs, firstMs, recoverMs, replayed []float64

	r.open(c.cpu)
	for op := 1; r.running(); op++ {
		for k := 0; k < commitsPerCycle; k++ {
			in.instance(nil, 0, 0)
		}
		tr := r.tracerFor(op)
		ph, err := in.recoverOnce(op)
		if err != nil {
			r.fail("cycle %d: %v", op, err)
			continue
		}
		root := tr.add("op", op, 0, ph.kill, ph.done)
		tr.add("boot", op, root, ph.kill, ph.ready)
		tr.add("rollback", op, root, ph.ready, ph.rolled)
		tr.add("first_commit", op, root, ph.rolled, ph.done)
		bootMs = append(bootMs, ms(ph.ready.Sub(ph.kill)))
		rollbackMs = append(rollbackMs, ms(ph.rolled.Sub(ph.ready)))
		firstMs = append(firstMs, ms(ph.done.Sub(ph.rolled)))
		recoverMs = append(recoverMs, ms(ph.done.Sub(ph.kill)))
		replayed = append(replayed, float64(ph.replayed))
		r.timed(ph.done.Sub(ph.kill), tr != nil)
	}
	r.close(c.peakRSS())

	r.initiatorMetrics(in)
	r.set("daemon.boot_ms", percentile(bootMs, 0.5))
	r.set("daemon.rollback_ms", percentile(rollbackMs, 0.5))
	r.set("daemon.first_commit_ms", percentile(firstMs, 0.5))
	r.set("daemon.recover_p90_ms", percentile(recoverMs, 0.9))
	r.set("stable.replayed_records", percentile(replayed, 0.5))
	r.auditCluster(c) //nolint:errcheck // recorded as checks
	if r.tr != nil {
		r.verify("trace.phases_sum_to_recover", phasesSum(r.tr.spans))
	}
	if r.p.trace {
		r.probeCluster(c)
	}
	return nil
}

// phases are the boundaries of one recovery. The spans between them are
// contiguous, so they sum to the recovery time by construction; the
// traced run checks that anyway, from the spans it wrote.
type phases struct {
	kill, ready, rolled, done time.Time
	replayed                  uint64
}

// recoverOnce kills the cycle's victim and brings the cluster back to a
// committed instance that includes it.
func (in *initiator) recoverOnce(cycle int) (phases, error) {
	var ph phases
	r, c := in.r, in.c
	n := c.n()
	victim := cycle % n
	peer := (victim + 1) % n
	r.res.Attempted++
	if err := c.quiesce(); err != nil {
		return ph, err
	}
	acked, err := c.lineCSN(victim)
	if err != nil {
		return ph, err
	}

	ph.kill = time.Now()
	c.kill(victim)
	if err := c.start(victim); err != nil {
		return ph, err
	}
	if err := c.waitReady(); err != nil {
		return ph, err
	}
	ph.ready = time.Now()
	for id := 0; id < n; id++ {
		if err := c.call(id, func(cl *daemon.Client) error { return cl.Rollback() }); err != nil {
			return ph, fmt.Errorf("rollback P%d: %w", id, err)
		}
	}
	ph.rolled = time.Now()
	// One message from the victim makes the initiator depend on it, so
	// the instance's request reaches the restarted process. The message
	// has arrived once the initiator has acked it; waiting for the ack's
	// way back instead (a quiesce) would time the survivors' stale
	// connection to the old incarnation, which loses the first frame
	// written to it and recovers on the 100 ms retransmit timer.
	acks, err := c.acksSent(peer, victim)
	if err != nil {
		return ph, err
	}
	if err := c.call(victim, func(cl *daemon.Client) error { return cl.Send(peer, in.payload) }); err != nil {
		return ph, fmt.Errorf("send from restarted P%d: %w", victim, err)
	}
	for limit := time.Now().Add(busyDeadline); ; {
		now, err := c.acksSent(peer, victim)
		if err != nil {
			return ph, err
		}
		if now > acks {
			break
		}
		if time.Now().After(limit) {
			return ph, fmt.Errorf("P%d did not receive the restarted P%d's message within %v", peer, victim, busyDeadline)
		}
	}
	committed, err := c.checkpoint(peer)
	ph.done = time.Now()
	if err != nil {
		return ph, fmt.Errorf("checkpoint after restart: %w", err)
	}
	if !committed {
		return ph, fmt.Errorf("first instance after restart aborted")
	}

	// Outside the timed span. First every other survivor writes to the
	// victim once: its connection still leads to the old incarnation, the
	// first frame on it is lost and comes back on the retransmit timer.
	// Paying that here keeps it out of the next cycle's commits.
	for id := 0; id < n; id++ {
		if id == victim || id == peer {
			continue
		}
		if err := c.call(id, func(cl *daemon.Client) error { return cl.Send(victim, in.payload) }); err != nil {
			return ph, fmt.Errorf("send P%d->P%d: %w", id, victim, err)
		}
	}
	// Then: what the restart replayed, and that the victim neither lost
	// an acked commit nor sat the instance out.
	var m daemon.Metrics
	if err := c.call(victim, func(cl *daemon.Client) (err error) { m, err = cl.Metrics(); return }); err != nil {
		return ph, err
	}
	ph.replayed = m.Store.ReplayedRecords
	if err := c.quiesce(); err != nil {
		return ph, err
	}
	csn, err := c.lineCSN(victim)
	if err != nil {
		return ph, err
	}
	if csn <= acked {
		return ph, fmt.Errorf("restarted P%d is at csn %d, was at %d before the kill: it lost a commit or took no part in the first instance", victim, csn, acked)
	}
	// The rollback rebuilt every engine, so the next acked commit is
	// compared against this line, not the one before the kill.
	for id := 0; id < n; id++ {
		delete(in.lastCSN, id)
	}
	return ph, nil
}

// acksSent is how many data frames daemon id has accepted from peer.
func (c *cluster) acksSent(id, peer int) (uint64, error) {
	var m daemon.Metrics
	err := c.call(id, func(cl *daemon.Client) (err error) { m, err = cl.Metrics(); return })
	return m.Sessions[peer].AcksSent, err
}

// waitReady tight-polls Status until every daemon reports ready; a
// restarting daemon refuses connections until it listens, which is
// retried.
func (c *cluster) waitReady() error {
	limit := time.Now().Add(bootWait)
	for id := 0; id < c.n(); {
		var st daemon.Response
		err := c.call(id, func(cl *daemon.Client) (err error) { st, err = cl.Status(); return })
		if err == nil && st.Ready {
			id++
			continue
		}
		if time.Now().After(limit) {
			return fmt.Errorf("P%d not ready after %v (last error: %v)", id, bootWait, err)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// phasesSum checks, cycle by cycle, that the boot, rollback and
// first_commit spans add up to the operation's span within 2 %.
func phasesSum(spans []span) error {
	total := make(map[int]int64)
	parts := make(map[int]int64)
	for _, s := range spans {
		if s.Parent == 0 {
			total[s.Op] = s.End - s.Start
		} else {
			parts[s.Op] += s.End - s.Start
		}
	}
	for op, t := range total {
		if diff := parts[op] - t; diff > t/50 || -diff > t/50 {
			return fmt.Errorf("cycle %d: phases sum to %d ns, recovery took %d ns", op, parts[op], t)
		}
	}
	return nil
}

// runSim is sim1k: the simulator's sequential kernel at N=1024, one
// simulated hour per operation, the same seed every time — so the event
// count must repeat exactly, and the latency samples are of equal work.
func runSim(r *run) error {
	cfg := harness.Config{
		Algorithm: harness.AlgoMutable,
		Workload:  harness.WorkloadP2P,
		N:         1024,
		Rate:      0.05,
		Horizon:   r.p.simHorizon,
		Seed:      r.p.seed,
	}
	self := func() time.Duration {
		cpu, _ := procCPU(os.Getpid())
		return cpu
	}
	// Set-up is a full run: it grows the heap to its working size, which
	// is what the first operation of a cold process would pay.
	var want uint64
	for i := 0; i < r.p.setups; i++ {
		t := time.Now()
		res, err := harness.Run(cfg)
		if err != nil {
			return err
		}
		want = res.SimulatedEvents
		r.setups = append(r.setups, time.Since(t).Seconds())
	}

	var last *harness.Result
	var events uint64
	var busy time.Duration
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	r.open(self)
	for op := 1; r.running(); op++ {
		r.res.Attempted++
		tr := r.tracerFor(op)
		root := tr.begin("op", op, 0)
		sp := tr.begin("harness.run", op, root)
		t := time.Now()
		res, err := harness.Run(cfg)
		lat := time.Since(t)
		tr.end(sp)
		tr.end(root)
		switch {
		case err != nil:
			r.fail("harness.Run: %v", err)
		case !res.ConsistencyOK:
			r.fail("inconsistent recovery line: %v", res.ConsistencyErr)
		case len(res.ClusterErrors) > 0:
			r.fail("cluster error: %v", res.ClusterErrors[0])
		case res.SimulatedEvents != want:
			r.fail("same seed, different run: %d events, then %d", want, res.SimulatedEvents)
		default:
			last = res
			events += res.SimulatedEvents
			busy += lat
			r.timed(lat, tr != nil)
		}
	}
	runtime.ReadMemStats(&mem1)
	hwm, _ := procHWM(os.Getpid())
	r.close(hwm)
	if last == nil {
		return nil
	}
	r.set("simrt.events", float64(want))
	r.set("simrt.events_per_s", float64(events)/busy.Seconds())
	r.set("simrt.tentative_per_init", last.Tentative.Mean())
	r.set("simrt.mutable_per_init", last.Mutable.Mean())
	r.set("simrt.redundant_per_init", last.Redundant.Mean())
	r.set("simrt.sysmsgs_per_init", last.SysMsgs.Mean())
	r.set("simrt.allocs_per_event", float64(mem1.Mallocs-mem0.Mallocs)/float64(events))
	return nil
}
