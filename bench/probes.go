package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mutablecp/internal/chunkstore"
	"mutablecp/internal/core"
	"mutablecp/internal/daemon"
	"mutablecp/internal/des"
	"mutablecp/internal/dyadic"
	"mutablecp/internal/livenet"
	"mutablecp/internal/protocol"
	"mutablecp/internal/relnet"
	"mutablecp/internal/stable"
	"mutablecp/internal/trace"
	"mutablecp/internal/wire"
	images "mutablecp/internal/workload"
)

// Layer probes: each times one layer alone, with the shapes the
// workloads give it (N=8 MR vectors, 64-byte payloads, 256 KiB skewed
// images, SyncOnCommit stores in the run directory). They run only in a
// traced run, after the window, and never feed an end-to-end metric.
// The old cmd/mcpbench rows they continue are named in README.md.

// perCall times calls of f in five batches and returns the median cost
// of one call, in nanoseconds.
func perCall(batch int, f func()) float64 {
	per := make([]float64, 5)
	for i := range per {
		t := time.Now()
		for k := 0; k < batch; k++ {
			f()
		}
		per[i] = float64(time.Since(t)) / float64(batch)
	}
	return percentile(per, 0.5)
}

// each times n single calls of f and returns them in milliseconds.
func each(n int, f func(i int)) []float64 {
	out := make([]float64, n)
	for i := range out {
		t := time.Now()
		f(i)
		out[i] = ms(time.Since(t))
	}
	return out
}

// probeLayers runs the probes of the named layers. A probe that cannot
// run is a failed check, not a silent zero.
func (r *run) probeLayers(layers []string) {
	probes := map[string]func(*run) error{
		"wire":       probeWire,
		"relnet":     probeRelnet,
		"livenet":    probeLivenet,
		"core":       probeCore,
		"des":        probeDES,
		"stable":     probeStable,
		"chunkstore": probeChunkstore,
	}
	for _, layer := range layers {
		if p, ok := probes[layer]; ok {
			r.verify("probe."+layer, p(r))
		}
	}
}

// probeCluster times the control plane of the running cluster: the
// Status round trip under every RPC, and an initiation on an idle
// cluster — the dependency-free instance the old daemon/commit rows
// measured.
func (r *run) probeCluster(c *cluster) {
	err := func() error {
		if err := c.quiesce(); err != nil {
			return err
		}
		var rpcErr error
		rtt := each(200, func(int) {
			if err := c.call(0, func(cl *daemon.Client) error { _, err := cl.Status(); return err }); err != nil {
				rpcErr = err
			}
		})
		solo := each(30, func(int) {
			if committed, err := c.checkpoint(0); err != nil {
				rpcErr = err
			} else if !committed {
				rpcErr = fmt.Errorf("idle-cluster instance aborted")
			}
		})
		r.set("daemon.status_rtt_us", 1000*percentile(rtt, 0.5))
		r.set("daemon.solo_commit_ms", percentile(solo, 0.5))
		return rpcErr
	}()
	r.verify("probe.daemon", err)
}

// requestN8 is a checkpoint request as deps8 sends them: an 8-entry MR,
// a trigger and a halved weight.
func requestN8() *protocol.Message {
	mr := protocol.NewMRBuilder(8)
	for k := 0; k < 8; k += 2 {
		mr.SetCSN(k, 40+k)
		mr.SetFlag(k)
	}
	return &protocol.Message{
		Kind: protocol.KindRequest, From: 1, To: 2, CSN: 41,
		Trigger: protocol.Trigger{Pid: 0, Inum: 41}, ReqCSN: 40,
		MR: mr.Freeze(), Weight: dyadic.One().Half().Half(),
	}
}

func probeWire(r *run) error {
	m := requestN8()
	frame, err := wire.AppendMessage(nil, m)
	if err != nil {
		return err
	}
	var buf []byte
	encode := func() { buf, _ = wire.AppendMessage(buf[:0], m) }
	decode := func() { _, err = wire.NewDecoder(bytes.NewReader(frame)).Decode() }
	r.set("wire.msg_encode_ns", perCall(2000, encode))
	r.set("wire.msg_decode_ns", perCall(2000, decode))
	if err != nil {
		return err
	}
	r.set("wire.msg_bytes", float64(len(frame)))
	r.set("wire.msg_allocs", testing.AllocsPerRun(200, func() { encode(); decode() }))

	rec := &wire.StableRecord{
		Op: wire.OpTentative, Proc: 3, Trigger: protocol.Trigger{Pid: 0, Inum: 41}, At: time.Second,
		State: protocol.State{Proc: 3, CSN: 41, SentTo: make([]uint64, 8), RecvFrom: make([]uint64, 8), At: time.Second},
	}
	framed, err := wire.AppendStableRecord(nil, rec)
	if err != nil {
		return err
	}
	r.set("wire.record_encode_ns", perCall(2000, func() { buf, _ = wire.AppendStableRecord(buf[:0], rec) }))
	r.set("wire.record_decode_ns", perCall(2000, func() { _, _, err = wire.DecodeStableRecord(bytes.NewReader(framed)) }))
	return err
}

// probeRelnet times one frame through the ARQ state machines the daemon
// and the simulator share: Outbox.Push, Inbox.Accept, cumulative Ack.
func probeRelnet(r *run) error {
	var out relnet.Outbox[[]byte]
	var in relnet.Inbox[[]byte]
	out.Reopen(1)
	in.Reset(1)
	frame := make([]byte, 100)
	delivered := 0
	deliver := func([]byte) { delivered++ }
	r.set("relnet.frame_ns", perCall(20000, func() {
		f := out.Push(len(frame), frame)
		in.Accept(out.Gen(), f.Seq, f.Payload, deliver)
		out.Ack(in.Gen(), in.Cum())
	}))
	if delivered != 5*20000 || out.Len() != 0 {
		return fmt.Errorf("relnet probe: %d frames delivered, %d left unacked", delivered, out.Len())
	}
	return nil
}

// probeLivenet times Link.Send of a 100-byte frame over loopback, and a
// round trip over two links (there and back), which is what one
// request/reply hop of the checkpoint tree costs below the codec.
func probeLivenet(r *run) error {
	const size = 100
	// listen accepts one connection and calls got for every full frame,
	// until got fails or the connection ends.
	listen := func(got func() error) (net.Listener, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() //nolint:errcheck
			buf := make([]byte, size)
			for {
				conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // a stuck probe must end
				if _, err := io.ReadFull(conn, buf); err != nil || got() != nil {
					return
				}
			}
		}()
		return ln, nil
	}
	frame := make([]byte, size)
	back := make(chan struct{}, 1)
	home, err := listen(func() error { back <- struct{}{}; return nil })
	if err != nil {
		return err
	}
	defer home.Close() //nolint:errcheck
	homeLink := livenet.NewLink(home.Addr().String(), livenet.LinkOptions{})
	defer homeLink.Close()
	away, err := listen(func() error { return homeLink.Send(frame) })
	if err != nil {
		return err
	}
	defer away.Close() //nolint:errcheck
	awayLink := livenet.NewLink(away.Addr().String(), livenet.LinkOptions{})
	defer awayLink.Close()

	var sendErr error
	rtt := each(500, func(int) {
		if sendErr != nil {
			return
		}
		if sendErr = awayLink.Send(frame); sendErr != nil {
			return
		}
		select {
		case <-back:
		case <-time.After(time.Second):
			sendErr = fmt.Errorf("livenet probe: no echo within 1 s")
		}
	})
	if sendErr != nil {
		return sendErr
	}
	r.set("livenet.link_rtt_us", 1000*percentile(rtt, 0.5))

	// One-way cost: the far side reads and does not answer.
	sink, err := listen(func() error { return nil })
	if err != nil {
		return err
	}
	defer sink.Close() //nolint:errcheck
	sinkLink := livenet.NewLink(sink.Addr().String(), livenet.LinkOptions{})
	defer sinkLink.Close()
	r.set("livenet.link_send_ns", perCall(2000, func() {
		if err := sinkLink.Send(frame); err != nil {
			sendErr = err
		}
	}))
	return sendErr
}

// engineWorld is N engines over an in-memory FIFO queue: the protocol's
// own work with a constant-cost Env, as internal/benchreg's scale rows
// build it.
type engineWorld struct {
	engines []*core.Engine
	queue   []*protocol.Message
	pumped  int
}

type engineEnv struct {
	w  *engineWorld
	id protocol.ProcessID
}

func (e *engineEnv) ID() protocol.ProcessID { return e.id }
func (e *engineEnv) N() int                 { return len(e.w.engines) }
func (e *engineEnv) Now() time.Duration     { return 0 }
func (e *engineEnv) Send(m *protocol.Message) {
	m.From = e.id
	e.w.queue = append(e.w.queue, m)
}
func (e *engineEnv) Broadcast(m *protocol.Message) {
	for to := range e.w.engines {
		if to != int(e.id) {
			cp := *m
			cp.From, cp.To = e.id, protocol.ProcessID(to)
			e.w.queue = append(e.w.queue, &cp)
		}
	}
}
func (e *engineEnv) CaptureState() protocol.State                   { return protocol.State{Proc: e.id} }
func (e *engineEnv) SaveTentative(protocol.State, protocol.Trigger) {}
func (e *engineEnv) SaveMutable(protocol.State, protocol.Trigger)   {}
func (e *engineEnv) PromoteMutable(protocol.Trigger)                {}
func (e *engineEnv) DiscardMutable(protocol.Trigger)                {}
func (e *engineEnv) MakePermanent(protocol.Trigger)                 {}
func (e *engineEnv) DropTentative(protocol.Trigger)                 {}
func (e *engineEnv) DeliverApp(*protocol.Message)                   {}
func (e *engineEnv) BlockApp()                                      {}
func (e *engineEnv) UnblockApp()                                    {}
func (e *engineEnv) CheckpointingDone(protocol.Trigger, bool)       {}
func (e *engineEnv) Trace(trace.Kind, int, string, ...any)          {}
func (e *engineEnv) Tracing() bool                                  { return false }

func (w *engineWorld) send(m *protocol.Message, from, to int) {
	*m = protocol.Message{From: protocol.ProcessID(from), To: protocol.ProcessID(to)}
	w.engines[from].PrepareSend(m)
	w.engines[to].HandleMessage(m)
}

func (w *engineWorld) pump() {
	for len(w.queue) > 0 {
		m := w.queue[0]
		w.queue = w.queue[1:]
		w.pumped++
		w.engines[m.To].HandleMessage(m)
	}
}

// probeCore runs deps8's instance with nothing but the engine under it:
// eight seeded sends, an initiation at a rotating initiator, the request
// tree and the commit broadcast pumped to completion.
func probeCore(r *run) error {
	const n = 8
	w := &engineWorld{engines: make([]*core.Engine, n)}
	for i := range w.engines {
		w.engines[i] = core.New(&engineEnv{w: w, id: protocol.ProcessID(i)})
	}
	var m protocol.Message
	instances := 0
	var initErr error
	instance := func() {
		for k := 0; k < n; k++ {
			src := r.rng.Intn(n)
			dst := r.rng.Intn(n - 1)
			if dst >= src {
				dst++
			}
			w.send(&m, src, dst)
		}
		if err := w.engines[instances%n].Initiate(); err != nil {
			initErr = err
		}
		instances++
		w.pump()
	}
	r.set("core.instance_us", perCall(500, instance)/1000)
	if initErr != nil {
		return initErr
	}
	r.set("core.msgs_per_instance", float64(w.pumped)/float64(instances))
	send := func() { w.send(&m, 0, 1) }
	r.set("core.send_ns", perCall(20000, send))
	r.set("core.send_allocs", testing.AllocsPerRun(1000, send))
	return nil
}

// probeDES is the kernel's event churn with empty events: the ceiling
// over sim1k's events per second.
func probeDES(r *run) error {
	const events = 200000
	rate := make([]float64, 3)
	for i := range rate {
		sim := des.New()
		left := events
		var next func()
		next = func() {
			if left--; left > 0 {
				sim.Schedule(time.Microsecond, next)
			}
		}
		sim.Schedule(time.Microsecond, next)
		t := time.Now()
		if err := sim.RunAll(); err != nil {
			return err
		}
		rate[i] = float64(sim.Executed()) / time.Since(t).Seconds()
	}
	r.set("des.events_per_s", percentile(rate, 0.5))
	return nil
}

func stateN8(csn int) protocol.State {
	return protocol.State{CSN: csn, SentTo: make([]uint64, 8), RecvFrom: make([]uint64, 8)}
}

// probeStable times the durable log with the daemons' own options, in
// the run directory, so its fsync is the fsync the workloads paid.
func probeStable(r *run) error {
	dir := filepath.Join(r.dir, "probe-stable")
	opts := (&daemon.Config{}).StoreOptions()

	// A bare write+fsync, to tell disk drift from software drift.
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "raw"))
	if err != nil {
		return err
	}
	defer f.Close() //nolint:errcheck // probe scratch file
	block := make([]byte, 128)
	var ioErr error
	raw := each(50, func(int) {
		if _, err := f.Write(block); err != nil {
			ioErr = err
		}
		if err := f.Sync(); err != nil {
			ioErr = err
		}
	})
	if ioErr != nil {
		return ioErr
	}
	r.set("stable.raw_fsync_ms", percentile(raw, 0.5))

	st, err := stable.Open(stable.ProcDir(dir, 0), 0, 8, opts)
	if err != nil {
		return err
	}
	var tent, commit []float64
	for i := 1; i <= 50; i++ {
		trig := protocol.Trigger{Pid: 0, Inum: i}
		tent = append(tent, each(1, func(int) { ioErr = st.SaveTentative(stateN8(i), trig, 0) })...)
		if ioErr != nil {
			return ioErr
		}
		commit = append(commit, each(1, func(int) { ioErr = st.MakePermanent(trig, 0) })...)
		if ioErr != nil {
			return ioErr
		}
	}
	r.set("stable.tentative_us", 1000*percentile(tent, 0.5))
	r.set("stable.commit_ms", percentile(commit, 0.5))

	// Eight committers on one store: how many commits share an fsync.
	const committers, rounds = 8, 16
	before := st.Metrics().Syncs
	var wg sync.WaitGroup
	errs := make(chan error, committers)
	for w := 1; w <= committers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				trig := protocol.Trigger{Pid: protocol.ProcessID(w), Inum: i + 1}
				if err := st.SaveTentative(stateN8(i+1), trig, 0); err != nil {
					errs <- err
					return
				}
				if err := st.MakePermanent(trig, 0); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
	}
	if syncs := st.Metrics().Syncs - before; syncs > 0 {
		r.set("stable.group_commits_per_sync", float64(committers*rounds)/float64(syncs))
	}
	if err := st.Close(); err != nil {
		return err
	}

	// Replay: an uncompacted log of 500 instances, opened five times.
	long := stable.ProcDir(dir, 1)
	noSync := stable.Options{Sync: stable.SyncNever}
	if st, err = stable.Open(long, 1, 8, noSync); err != nil {
		return err
	}
	for i := 1; i <= 500; i++ {
		trig := protocol.Trigger{Pid: 1, Inum: i}
		if err := st.SaveTentative(stateN8(i), trig, 0); err != nil {
			return err
		}
		if err := st.MakePermanent(trig, 0); err != nil {
			return err
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	var records uint64
	opens := each(5, func(int) {
		re, err := stable.Open(long, 1, 8, noSync)
		if err != nil {
			ioErr = err
			return
		}
		records = re.Metrics().ReplayedRecords
		re.Close() //nolint:errcheck // read-only reopen
	})
	if ioErr != nil {
		return ioErr
	}
	if records == 0 {
		return fmt.Errorf("stable probe: reopen replayed no records")
	}
	r.set("stable.open_ms_per_krec", percentile(opens, 0.5)*1000/float64(records))
	return nil
}

// probeChunkstore times the payload plane alone on payload4's shape:
// 256 KiB skewed images, 4 KiB chunks, incremental mode, SyncOnCommit.
func probeChunkstore(r *run) error {
	const imageBytes, chunkBytes = 256 << 10, 4 << 10
	cfg := &daemon.Config{PayloadBytes: imageBytes, PayloadChunkBytes: chunkBytes}
	dir := chunkstore.Dir(filepath.Join(r.dir, "probe-chunks"))
	cs, err := chunkstore.Open(dir, cfg.ChunkOptions())
	if err != nil {
		return err
	}
	src := images.NewImages(images.ImagesConfig{
		Procs: 1, Bytes: imageBytes, PageBytes: chunkBytes, Profile: images.ProfileSkewed, Seed: r.p.seed,
	})
	view := cs.Proc(0)
	var save, commit []float64
	var ioErr error
	var img []byte
	for i := 1; i <= 20; i++ {
		trig := protocol.Trigger{Pid: 0, Inum: i}
		img = src.Image(0)
		save = append(save, each(1, func(int) { _, ioErr = view.SavePayload(trig, 0, img) })...)
		if ioErr != nil {
			return ioErr
		}
		commit = append(commit, each(1, func(int) { ioErr = view.CommitPayload(trig, 0) })...)
		if ioErr != nil {
			return ioErr
		}
	}
	r.set("chunkstore.save_ms", percentile(save, 0.5))
	r.set("chunkstore.commit_ms", percentile(commit, 0.5))

	chunks := chunkstore.SplitChunks(img, chunkBytes)
	hashNs := perCall(20, func() {
		for _, c := range chunks {
			chunkstore.HashChunk(c)
		}
	})
	r.set("chunkstore.hash_mb_per_s", float64(imageBytes)/1e6/(hashNs/1e9))

	mat := each(10, func(int) {
		got, ok, err := cs.Materialize(0)
		if err == nil && (!ok || !bytes.Equal(got, img)) {
			err = fmt.Errorf("chunkstore probe: materialized image differs from the one saved")
		}
		if err != nil {
			ioErr = err
		}
	})
	if ioErr != nil {
		return ioErr
	}
	r.set("chunkstore.materialize_ms", percentile(mat, 0.5))
	if err := cs.Close(); err != nil {
		return err
	}
	opens := each(5, func(int) {
		re, err := chunkstore.Open(dir, cfg.ChunkOptions())
		if err != nil {
			ioErr = err
			return
		}
		re.Close() //nolint:errcheck // read-only reopen
	})
	r.set("chunkstore.open_ms", percentile(opens, 0.5))
	return ioErr
}
