package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"mutablecp/internal/chunkstore"
	"mutablecp/internal/daemon"
)

// Deadlines. daemon.Client already bounds every RPC (5 s, and the
// checkpoint wait plus 5 s); these bound the harness's own waits, so a
// wedged cluster costs failed operations, never a hang.
const (
	requestTimeout = time.Second     // the daemons' §3.6 give-up
	checkpointWait = 2 * time.Second // daemon-side wait for a verdict
	busyDeadline   = 2 * time.Second // "already in progress" may persist this long
	quiesceWait    = 5 * time.Second
	bootWait       = 30 * time.Second
	exitWait       = 10 * time.Second
)

// clusterSpec is the part of a daemon.Config a workload chooses.
type clusterSpec struct {
	n            int
	payloadBytes int
}

// cluster is a set of real mcpd child processes plus the harness's
// control connections to them. Only the initiator goroutine uses ctl.
type cluster struct {
	cfg     *daemon.Config
	cfgPath string
	log     *os.File
	procs   []*exec.Cmd
	ctl     []*daemon.Client
	// deadCPU is the processor time of children killed so far; their
	// /proc entries are gone, so kill reads it first.
	deadCPU time.Duration
}

// reserveAddrs picks n distinct free loopback ports by binding and
// releasing them, as the daemon tests do.
func reserveAddrs(n int) ([]string, error) {
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close() //nolint:errcheck
		}
	}()
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// bootCluster writes a config under dir, re-execs one mcpd child per
// node, waits for the readiness barrier and dials every control port.
// Stores sync at the production policy (SyncOnCommit).
func bootCluster(dir string, spec clusterSpec) (*cluster, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfg := &daemon.Config{
		Algorithm:        "mutable",
		StoreRoot:        filepath.Join(dir, "stores"),
		RequestTimeoutMS: int(requestTimeout / time.Millisecond),
	}
	if spec.payloadBytes > 0 {
		cfg.PayloadBytes = spec.payloadBytes
		cfg.PayloadChunkBytes = 4 << 10
		cfg.PayloadProfile = "skewed"
		cfg.PayloadMode = chunkstore.ModeIncremental.String()
	}
	addrs, err := reserveAddrs(2 * spec.n)
	if err != nil {
		return nil, err
	}
	for i := 0; i < spec.n; i++ {
		cfg.Nodes = append(cfg.Nodes, daemon.NodeConfig{ID: i, Addr: addrs[i], CtlAddr: addrs[spec.n+i]})
	}
	c := &cluster{
		cfg:     cfg,
		cfgPath: filepath.Join(dir, "cluster.json"),
		procs:   make([]*exec.Cmd, spec.n),
		ctl:     make([]*daemon.Client, spec.n),
	}
	if err := daemon.WriteConfig(c.cfgPath, cfg); err != nil {
		return nil, err
	}
	if c.log, err = os.Create(filepath.Join(dir, "mcpd.log")); err != nil {
		return nil, err
	}
	for id := range c.procs {
		if err := c.start(id); err != nil {
			c.stop()
			return nil, err
		}
	}
	if err := daemon.WaitClusterReady(cfg, bootWait); err != nil {
		c.stop()
		return nil, err
	}
	for id := range c.ctl {
		if err := c.redial(id); err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

func (c *cluster) n() int { return len(c.procs) }

func (c *cluster) start(id int) error {
	cmd := daemon.ChildCommand(c.cfgPath, id)
	cmd.Stderr = c.log
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("spawn P%d: %w", id, err)
	}
	c.procs[id] = cmd
	return nil
}

// redial replaces the control connection to id. A call that failed may
// have left a half-read gob stream behind, so errors always end here.
func (c *cluster) redial(id int) error {
	if c.ctl[id] != nil {
		c.ctl[id].Close() //nolint:errcheck // replacing it
		c.ctl[id] = nil
	}
	nc, _ := c.cfg.Node(id)
	cl, err := daemon.Dial(nc.CtlAddr)
	if err != nil {
		return err
	}
	c.ctl[id] = cl
	return nil
}

// call runs one RPC against daemon id and repairs the connection when
// it fails.
func (c *cluster) call(id int, rpc func(cl *daemon.Client) error) error {
	if c.ctl[id] == nil {
		if err := c.redial(id); err != nil {
			return err
		}
	}
	err := rpc(c.ctl[id])
	if err != nil {
		c.ctl[id].Close() //nolint:errcheck // broken anyway
		c.ctl[id] = nil
	}
	return err
}

// kill sends SIGKILL to daemon id and reaps it.
func (c *cluster) kill(id int) {
	cmd := c.procs[id]
	if cmd == nil {
		return
	}
	if cpu, err := procCPU(cmd.Process.Pid); err == nil {
		c.deadCPU += cpu
	}
	cmd.Process.Kill() //nolint:errcheck // already gone is fine
	cmd.Wait()         //nolint:errcheck // killed: the status is the signal
	c.procs[id] = nil
	if c.ctl[id] != nil {
		c.ctl[id].Close() //nolint:errcheck
		c.ctl[id] = nil
	}
}

// stop shuts every daemon down over the control plane, waits for each
// child to exit and kills any that does not, so no process outlives the
// benchmark.
func (c *cluster) stop() {
	for id, cmd := range c.procs {
		if cmd != nil {
			c.call(id, func(cl *daemon.Client) error { return cl.Shutdown() }) //nolint:errcheck // the kill below covers it
		}
	}
	for id, cmd := range c.procs {
		if cmd == nil {
			continue
		}
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }() //nolint:errcheck
		select {
		case <-done:
		case <-time.After(exitWait):
			cmd.Process.Kill() //nolint:errcheck
			<-done
		}
		c.procs[id] = nil
	}
	for id, cl := range c.ctl {
		if cl != nil {
			cl.Close() //nolint:errcheck
			c.ctl[id] = nil
		}
	}
	if c.log != nil {
		c.log.Close() //nolint:errcheck
	}
}

// cpu is the processor time all children, living and killed, have used.
func (c *cluster) cpu() time.Duration {
	total := c.deadCPU
	for _, cmd := range c.procs {
		if cmd == nil {
			continue
		}
		if t, err := procCPU(cmd.Process.Pid); err == nil {
			total += t
		}
	}
	return total
}

// peakRSS sums the living children's peak resident sets, in bytes.
func (c *cluster) peakRSS() uint64 {
	var total uint64
	for _, cmd := range c.procs {
		if cmd == nil {
			continue
		}
		if b, err := procHWM(cmd.Process.Pid); err == nil {
			total += b
		}
	}
	return total
}

var errQuiesce = errors.New("cluster did not quiesce before the deadline")

// quiesce waits until no channel holds an unacked frame and no daemon is
// inside an instance. Backlogs are read first: an acked frame is already
// in its receiver's mailbox, and the Status call that follows runs on
// that mailbox's loop, behind it — so when quiesce returns every
// application message sent before it has reached its engine.
func (c *cluster) quiesce() error {
	limit := time.Now().Add(quiesceWait)
	for {
		settled, err := c.settled()
		if err != nil {
			return err
		}
		if settled {
			return nil
		}
		if time.Now().After(limit) {
			return errQuiesce
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func (c *cluster) settled() (bool, error) {
	// Every daemon is asked on every pass, also after the answer is known
	// to be no: a dead daemon then fails the pass at once instead of
	// hiding behind its peers' backlog until the deadline.
	settled := true
	for id := range c.ctl {
		var m daemon.Metrics
		if err := c.call(id, func(cl *daemon.Client) (err error) { m, err = cl.Metrics(); return }); err != nil {
			return false, err
		}
		for _, backlog := range m.Backlog {
			settled = settled && backlog == 0
		}
	}
	if !settled {
		return false, nil
	}
	for id := range c.ctl {
		var st daemon.Response
		if err := c.call(id, func(cl *daemon.Client) (err error) { st, err = cl.Status(); return }); err != nil {
			return false, err
		}
		if st.InProgress {
			return false, nil
		}
	}
	return true, nil
}

// counters is the sum of every daemon's control-plane counters, keyed
// "<layer>.<counter>".
type counters map[string]uint64

// minus returns the growth of every counter since base.
func (c counters) minus(base counters) counters {
	d := make(counters, len(c))
	for k, v := range c {
		d[k] = v - base[k]
	}
	return d
}

// readCounters sums the counters over all daemons and, on a payload
// cluster, has each run its chunk-store audit (the Store op verifies
// every retained manifest daemon-side). The counters restart from zero
// with their process, so deltas only make sense while no daemon does.
func (c *cluster) readCounters() (counters, error) {
	sum := make(counters)
	for id := range c.ctl {
		var m daemon.Metrics
		if err := c.call(id, func(cl *daemon.Client) (err error) { m, err = cl.Metrics(); return }); err != nil {
			return sum, fmt.Errorf("metrics P%d: %w", id, err)
		}
		sum["daemon.commits"] += m.Commits
		sum["daemon.aborts"] += m.Aborts
		sum["stable.appends"] += m.Store.Appends
		sum["stable.bytes"] += m.Store.AppendedBytes
		sum["stable.syncs"] += m.Store.Syncs
		for _, s := range m.Sessions {
			sum["relnet.frames"] += s.DataFrames
			sum["relnet.retx"] += s.Retransmissions
			sum["relnet.dups"] += s.DupsSuppressed
			sum["relnet.acks"] += s.AcksSent
			sum["daemon.batches"] += s.Batches
			sum["daemon.envelopes"] += s.Envelopes
		}
		if c.cfg.PayloadBytes == 0 {
			continue
		}
		var st chunkstore.Stats
		if err := c.call(id, func(cl *daemon.Client) (err error) { st, _, err = cl.Store(); return }); err != nil {
			return sum, fmt.Errorf("store audit P%d: %w", id, err)
		}
		sum["chunkstore.appends"] += st.Appends
		sum["chunkstore.syncs"] += st.Syncs
		sum["chunkstore.logical_bytes"] += st.LogicalBytes
		sum["chunkstore.new_bytes"] += st.NewBytes
		sum["chunkstore.new_chunks"] += st.NewChunks
		sum["chunkstore.dedup_chunks"] += st.DedupChunks
	}
	return sum, nil
}

// lineCSN is the csn of daemon id's newest permanent checkpoint.
func (c *cluster) lineCSN(id int) (int, error) {
	var csn int
	err := c.call(id, func(cl *daemon.Client) error {
		st, err := cl.Line()
		csn = st.CSN
		return err
	})
	return csn, err
}
