package netsim

// Faulty decorates any Transport with deterministic, seeded fault
// injection: message drop, duplication, extra delivery jitter, partition
// windows, and fail-stop crashes. It deliberately breaks the reliable
// FIFO guarantee the computation model requires — Reliable layers an
// ARQ sublayer on top to restore it, and the chaos gauntlet in
// internal/harness drives the whole stack.
//
// All randomness comes from one xrand stream consumed in a fixed order
// (per message: drop, then duplicate, then one jitter draw per copy), so
// identical seed + config reproduce the exact same fault pattern.

import (
	"time"

	"mutablecp/internal/des"
	"mutablecp/internal/protocol"
	"mutablecp/internal/xrand"
)

// Partition is a window during which the process set is split in two and
// no message crosses between the sides.
type Partition struct {
	From  time.Duration
	Until time.Duration
	// GroupA lists the processes on one side; everyone else is on the
	// other side.
	GroupA []protocol.ProcessID
}

// FaultConfig tunes the injected faults. The zero value injects nothing.
type FaultConfig struct {
	// Seed feeds the fault stream; runs with equal Seed and equal fault
	// parameters replay byte-identically.
	Seed uint64
	// Drop is the per-message loss probability in [0, 1). A dropped
	// message never reaches the inner transport (it vanishes at the
	// sender's radio, so lower layers assign it no resources).
	Drop float64
	// Dup is the per-message duplication probability in [0, 1): the inner
	// transport carries the message twice.
	Dup float64
	// JitterMax adds a uniform extra delay in [0, JitterMax) after the
	// inner transport delivers, independently per copy — late copies
	// reorder traffic on the same channel.
	JitterMax time.Duration
	// Partitions are link-cut windows.
	Partitions []Partition
	// CrashAt schedules fail-stop crashes: from the given instant the
	// process neither sends nor receives anything — forever, unless
	// RestartAt reopens the window.
	CrashAt map[protocol.ProcessID]time.Duration
	// RestartAt, when it has an entry for a crashed process, turns the
	// crash into a [CrashAt, RestartAt) window: from RestartAt on, the
	// process's radio works again. Traffic delivered to or sent by a
	// restarted process is counted in RevivedDeliveries, separately from
	// the CrashDropped traffic the window ate. An entry without a
	// matching CrashAt entry is ignored.
	RestartAt map[protocol.ProcessID]time.Duration
}

// Faulty is the fault-injecting Transport decorator.
type Faulty struct {
	sim   *des.Simulator
	inner Transport
	n     int
	cfg   FaultConfig
	rng   *xrand.Stream

	// partSide[w][p] reports which side of partition window w process p
	// is on.
	partSide [][]bool

	// Counters for reports (reads only; never fed back into decisions).
	Dropped          uint64
	Duplicated       uint64
	Jittered         uint64
	PartitionDropped uint64
	CrashDropped     uint64
	// RevivedDeliveries counts messages carried to or from a process after
	// its crash window closed (RestartAt); CrashDropped counts only the
	// traffic lost inside the window.
	RevivedDeliveries uint64
}

var _ Transport = (*Faulty)(nil)

// NewFaulty wraps inner with fault injection for n processes.
func NewFaulty(sim *des.Simulator, inner Transport, n int, cfg FaultConfig) *Faulty {
	f := &Faulty{
		sim:   sim,
		inner: inner,
		n:     n,
		cfg:   cfg,
		rng:   xrand.New(cfg.Seed).Derive(0xFA07),
	}
	f.partSide = make([][]bool, len(cfg.Partitions))
	for w, p := range cfg.Partitions {
		side := make([]bool, n)
		for _, id := range p.GroupA {
			if id >= 0 && id < n {
				side[id] = true
			}
		}
		f.partSide[w] = side
	}
	return f
}

// crashed reports whether p is inside its crash window at time now: the
// window is [CrashAt, RestartAt), or [CrashAt, ∞) with no restart entry.
func (f *Faulty) crashed(p protocol.ProcessID, now time.Duration) bool {
	at, ok := f.cfg.CrashAt[p]
	if !ok || now < at {
		return false
	}
	if until, ok := f.cfg.RestartAt[p]; ok && now >= until {
		return false
	}
	return true
}

// restarted reports whether p's crash window has already closed at now.
func (f *Faulty) restarted(p protocol.ProcessID, now time.Duration) bool {
	if _, ok := f.cfg.CrashAt[p]; !ok {
		return false
	}
	until, ok := f.cfg.RestartAt[p]
	return ok && now >= until
}

// partitioned reports whether a message from -> to is cut by an active
// partition window at time now.
func (f *Faulty) partitioned(from, to protocol.ProcessID, now time.Duration) bool {
	for w, p := range f.cfg.Partitions {
		if now >= p.From && now < p.Until && f.partSide[w][from] != f.partSide[w][to] {
			return true
		}
	}
	return false
}

// fate draws this message's faults in fixed order. copies == 0 means the
// message is lost at the sender.
func (f *Faulty) fate() (copies int) {
	if f.cfg.Drop > 0 && f.rng.Float64() < f.cfg.Drop {
		f.Dropped++
		return 0
	}
	copies = 1
	if f.cfg.Dup > 0 && f.rng.Float64() < f.cfg.Dup {
		f.Duplicated++
		copies = 2
	}
	return copies
}

// wrapDeliver adds per-copy jitter and the receiver-side crash check. The
// jitter draw happens at send time so the draw order is fixed.
func (f *Faulty) wrapDeliver(to protocol.ProcessID, deliver des.Firer) des.Firer {
	var jitter time.Duration
	if f.cfg.JitterMax > 0 {
		jitter = time.Duration(f.rng.Float64() * float64(f.cfg.JitterMax))
		if jitter > 0 {
			f.Jittered++
		}
	}
	return des.Func(func() {
		now := f.sim.Now()
		if f.crashed(to, now) {
			f.CrashDropped++
			return
		}
		if f.restarted(to, now) {
			f.RevivedDeliveries++
		}
		if jitter > 0 {
			f.sim.Schedule(jitter, deliver.Fire)
			return
		}
		deliver.Fire()
	})
}

// Unicast implements Transport.
func (f *Faulty) Unicast(from, to protocol.ProcessID, size int, deliver des.Firer) {
	now := f.sim.Now()
	if f.crashed(from, now) {
		f.CrashDropped++
		return
	}
	if f.restarted(from, now) {
		f.RevivedDeliveries++
	}
	if f.partitioned(from, to, now) {
		f.PartitionDropped++
		return
	}
	copies := f.fate()
	for c := 0; c < copies; c++ {
		f.inner.Unicast(from, to, size, f.wrapDeliver(to, deliver))
	}
}

// Broadcast implements Transport. Fault decisions are per destination, in
// process-ID order: each listener's radio loses or duplicates the frame
// independently. Duplicate copies travel as unicasts.
func (f *Faulty) Broadcast(from protocol.ProcessID, size int, deliver func(to protocol.ProcessID)) {
	now := f.sim.Now()
	if f.crashed(from, now) {
		f.CrashDropped++
		return
	}
	if f.restarted(from, now) {
		f.RevivedDeliveries++
	}
	fates := make([]int, f.n)
	wrapped := make([]des.Firer, f.n)
	for to := 0; to < f.n; to++ {
		if to == from {
			continue
		}
		if f.partitioned(from, to, now) {
			f.PartitionDropped++
			continue
		}
		fates[to] = f.fate()
		if fates[to] > 0 {
			to := to
			wrapped[to] = f.wrapDeliver(to, des.Func(func() { deliver(to) }))
		}
	}
	f.inner.Broadcast(from, size, func(to protocol.ProcessID) {
		if fates[to] > 0 {
			wrapped[to].Fire()
		}
	})
	for to := 0; to < f.n; to++ {
		if fates[to] == 2 {
			to := to
			f.inner.Unicast(from, to, size, f.wrapDeliver(to, des.Func(func() { deliver(to) })))
		}
	}
}

// StableTransfer implements Transport: the host-to-MSS checkpoint channel
// is local and link-layer reliable, so only a crashed host is affected.
func (f *Faulty) StableTransfer(from protocol.ProcessID, size int, done des.Firer) {
	now := f.sim.Now()
	if f.crashed(from, now) {
		f.CrashDropped++
		return
	}
	if f.restarted(from, now) {
		f.RevivedDeliveries++
	}
	f.inner.StableTransfer(from, size, done)
}
