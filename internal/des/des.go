// Package des provides a deterministic discrete-event simulation kernel.
//
// The kernel keeps a virtual clock and two queues of scheduled events: a
// binary heap for events scheduled in any order, and a FIFO for producers
// that schedule in nondecreasing time order, such as a shared medium whose
// transmissions complete one after another. Every event gets its
// (time, schedule order) key when it is scheduled, whichever queue holds
// it, and the kernel always fires the least key of the two queue heads. So
// the firing order is the same as with one queue: events fire in time
// order, and events scheduled for the same instant fire in the order they
// were scheduled, which makes every simulation run fully deterministic for
// a given seed and schedule. All checkpointing experiments in this
// repository run on top of this kernel so that virtual time (900-second
// checkpoint intervals, 2-second checkpoint transfers) is cheap to
// simulate.
//
// The hot path is allocation-free: both queues store event values (not
// pointers) in slices, and event identity is a (slot, generation) pair
// drawn from a free list, so Schedule/Step never touch a map and never
// allocate once the backing slices reach steady size. An event's body is
// a Firer: a producer that recycles its own event records, such as the
// simulated network's deliveries, hands the kernel a pointer and
// allocates no closure per event; Schedule adapts a func() through Func.
// A FIFO push or pop is O(1), which matters when a saturated medium keeps
// tens of thousands of deliveries queued. Cancel is lazy: it flips the slot's pending bit
// and leaves a tombstone in the heap, which is discarded when it surfaces
// at the root (or swept out wholesale when tombstones outnumber live
// events), instead of paying an O(log n) heap removal per cancellation.
// FIFO events cannot be cancelled, so they take no slot.
package des

import (
	"errors"
	"time"
)

// ErrStopped is returned by Run when the simulation was stopped explicitly
// via Stop before the horizon was reached.
var ErrStopped = errors.New("des: simulation stopped")

// EventID identifies a scheduled event so it can be cancelled. It packs the
// event's slot index (high 32 bits) and the slot's generation (low 32
// bits); generations start at 1, so a valid EventID is never zero.
type EventID uint64

func makeEventID(slot, gen uint32) EventID {
	return EventID(uint64(slot)<<32 | uint64(gen))
}

func (id EventID) split() (slot, gen uint32) {
	return uint32(id >> 32), uint32(id)
}

// Firer is an event body: the kernel calls Fire when the event is due.
// A pointer stored in the interface does not allocate, so a producer that
// recycles its own event records (a simulated network's deliveries)
// schedules without allocating.
type Firer interface{ Fire() }

// Func adapts a func() to a Firer. A func value is one pointer, so the
// conversion allocates nothing beyond the closure itself.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// event is a single scheduled body, stored by value in a queue. An event
// in the FIFO has gen 0: it holds no slot.
type event struct {
	at   time.Duration
	seq  uint64 // tie-breaker: schedule order
	f    Firer
	slot uint32
	gen  uint32
}

// slot carries the out-of-heap state for one in-flight event. pending flips
// to false when the event is cancelled (the heap entry becomes a tombstone)
// or fires; gen increments each time the slot is recycled, invalidating any
// stale EventID that still points at it.
type slot struct {
	gen     uint32
	pending bool
}

// compactMinTombstones is the floor below which lazy cancellation never
// bothers sweeping the heap: small queues tolerate a handful of tombstones
// and the sweep would cost more than it saves.
const compactMinTombstones = 64

// Chooser selects which of k same-timestamp events fires next. It is the
// model checker's entry point into the kernel: with no chooser installed,
// ties break in schedule order (choice 0); with one installed, every
// instant at which k > 1 events are ready becomes an explicit decision
// point. Choose must return a value in [0, k). The events are presented in
// schedule order, so returning 0 reproduces the default behaviour exactly.
type Chooser interface {
	Choose(now time.Duration, k int) int
}

// Simulator is a single-threaded discrete-event simulator. It is not safe
// for concurrent use; all event callbacks run on the goroutine that calls
// Run or Step.
type Simulator struct {
	now     time.Duration
	seq     uint64
	heap    []event
	fifo    []event // ring buffer, sorted by (at, seq)
	head    int     // index of the FIFO's first event
	queued  int     // events in the FIFO
	slots   []slot
	free    []uint32 // recycled slot indices
	dead    int      // cancelled events still sitting in heap
	stopped bool

	chooser Chooser
	scratch []event // same-timestamp batch buffer for chooseStep

	// Executed counts events that have fired, for diagnostics.
	executed uint64
}

// New returns an empty simulator with the clock at zero.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Executed reports how many events have fired so far.
func (s *Simulator) Executed() uint64 { return s.executed }

// Pending reports how many live (not cancelled) events are currently
// scheduled.
func (s *Simulator) Pending() int { return len(s.heap) - s.dead + s.queued }

// Schedule runs fn after delay of virtual time. A negative delay is treated
// as zero (fire at the current instant, after already-queued events for this
// instant). It returns an id usable with Cancel.
func (s *Simulator) Schedule(delay time.Duration, fn func()) EventID {
	if delay < 0 {
		delay = 0
	}
	return s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt runs fn at the given absolute virtual time. Times in the past
// are clamped to the current instant.
func (s *Simulator) ScheduleAt(at time.Duration, fn func()) EventID {
	return s.scheduleAt(at, Func(fn))
}

func (s *Simulator) scheduleAt(at time.Duration, f Firer) EventID {
	if at < s.now {
		at = s.now
	}
	s.seq++
	idx := s.newSlot()
	gen := s.slots[idx].gen
	s.push(event{at: at, seq: s.seq, f: f, slot: idx, gen: gen})
	return makeEventID(idx, gen)
}

// ScheduleFIFO fires f at the given absolute virtual time, like
// ScheduleAt, but the event cannot be cancelled. A producer whose times
// never decrease (a shared medium: each transmission ends after the one
// before it) should use it: such events queue in O(1) instead of
// O(log n). A time earlier than the last FIFO event's goes to the heap
// instead, so the firing order never depends on the caller keeping its
// times in order.
func (s *Simulator) ScheduleFIFO(at time.Duration, f Firer) {
	if at < s.now {
		at = s.now
	}
	if s.queued > 0 && at < s.fifo[s.fifoIndex(s.queued-1)].at {
		s.scheduleAt(at, f)
		return
	}
	s.seq++
	if s.queued == len(s.fifo) {
		// Grow by half, not double: a saturated medium keeps over 10^5
		// deliveries queued, and doubling just past such a depth would
		// leave half the array unused.
		ring := make([]event, len(s.fifo)+max(64, len(s.fifo)/2))
		n := copy(ring, s.fifo[s.head:])
		copy(ring[n:], s.fifo[:s.head])
		s.fifo, s.head = ring, 0
	}
	s.fifo[s.fifoIndex(s.queued)] = event{at: at, seq: s.seq, f: f}
	s.queued++
}

// fifoIndex is the ring index of the FIFO's i-th event.
func (s *Simulator) fifoIndex(i int) int {
	if i += s.head; i >= len(s.fifo) {
		i -= len(s.fifo)
	}
	return i
}

// newSlot takes a slot for a heap event and marks it pending.
func (s *Simulator) newSlot() uint32 {
	var idx uint32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.slots = append(s.slots, slot{gen: 1})
		idx = uint32(len(s.slots) - 1)
		if cap(s.free) < cap(s.slots) {
			// Keep cap(free) >= len(slots) so freeSlot never reallocates:
			// cancellation and compaction stay allocation-free, paying the
			// growth here on the (already allocating) schedule path.
			free := make([]uint32, len(s.free), cap(s.slots))
			copy(free, s.free)
			s.free = free
		}
	}
	s.slots[idx].pending = true
	return idx
}

// Cancel removes a scheduled event. It reports whether the event was still
// pending (false when it already fired, was cancelled, or never existed).
// Cancellation is O(1): the heap entry is tombstoned in place and reclaimed
// lazily.
func (s *Simulator) Cancel(id EventID) bool {
	idx, gen := id.split()
	if int(idx) >= len(s.slots) {
		return false
	}
	sl := &s.slots[idx]
	if sl.gen != gen || !sl.pending {
		return false
	}
	sl.pending = false
	s.dead++
	if s.dead >= compactMinTombstones && s.dead > len(s.heap)/2 {
		s.compact()
	}
	return true
}

// release frees the slot of an event that has left the heap to fire.
func (s *Simulator) release(idx uint32) {
	s.slots[idx].pending = false
	s.freeSlot(idx)
}

// freeSlot recycles a slot whose heap entry has been removed, invalidating
// outstanding EventIDs for it. The generation skips 0 when it wraps, since
// gen 0 marks an event that holds no slot.
func (s *Simulator) freeSlot(idx uint32) {
	sl := &s.slots[idx]
	if sl.gen++; sl.gen == 0 {
		sl.gen = 1
	}
	s.free = append(s.free, idx)
}

// live reports whether a heap entry still refers to a pending event.
func (s *Simulator) live(ev *event) bool {
	sl := &s.slots[ev.slot]
	return sl.pending && sl.gen == ev.gen
}

// pruneRoot pops tombstones off the heap root so that, on return, heap[0]
// (if any) is a live event.
func (s *Simulator) pruneRoot() {
	for len(s.heap) > 0 {
		ev := s.heap[0]
		if s.live(&ev) {
			return
		}
		s.popRoot()
		s.dead--
		s.freeSlot(ev.slot)
	}
}

// peek returns the next event to fire, without removing it, and whether
// it is the FIFO's head rather than the heap's root; nil when nothing is
// pending. It prunes tombstones off the heap root first, so a horizon
// check sees a live event.
func (s *Simulator) peek() (next *event, fromFIFO bool) {
	s.pruneRoot()
	if s.queued > 0 {
		f := &s.fifo[s.head]
		if len(s.heap) == 0 || s.less(f, &s.heap[0]) {
			return f, true
		}
	}
	if len(s.heap) == 0 {
		return nil, false
	}
	return &s.heap[0], false
}

// popFIFO removes the FIFO's first event; callers must copy it out first.
func (s *Simulator) popFIFO() {
	s.fifo[s.head] = event{} // release the event body
	if s.head++; s.head == len(s.fifo) {
		s.head = 0
	}
	s.queued--
}

// compact sweeps every tombstone out of the heap in one O(n) pass and
// re-heapifies. Amortised over the cancellations that triggered it this is
// O(1) per Cancel, and it bounds heap memory at ~2x the live event count
// even under pathological Reschedule storms.
func (s *Simulator) compact() {
	keep := s.heap[:0]
	for i := range s.heap {
		ev := s.heap[i]
		if s.live(&ev) {
			keep = append(keep, ev)
		} else {
			s.freeSlot(ev.slot)
		}
	}
	for i := len(keep); i < len(s.heap); i++ {
		s.heap[i] = event{} // release dropped event bodies
	}
	s.heap = keep
	s.dead = 0
	for i := len(s.heap)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
}

// Stop makes the currently running Run call return ErrStopped after the
// current event completes.
func (s *Simulator) Stop() { s.stopped = true }

// SetChooser installs (or, with nil, removes) a tie-break strategy. With a
// chooser installed, Step collects every live event sharing the earliest
// timestamp, from both queues, and asks the chooser which fires first; the
// rest are requeued with their original schedule order intact, so a
// chooser that always returns 0 is byte-identical to the default kernel.
func (s *Simulator) SetChooser(c Chooser) { s.chooser = c }

// Step fires the next pending event, advancing the clock to its timestamp.
// It reports whether an event fired.
func (s *Simulator) Step() bool { return s.stepBefore(maxTime) }

// maxTime is the horizon of Step and RunAll: no event is due after it.
const maxTime = time.Duration(1<<63 - 1)

// stepBefore is Step for an event due at or before horizon: a later one
// stays queued and nothing fires.
func (s *Simulator) stepBefore(horizon time.Duration) bool {
	next, fromFIFO := s.peek()
	if next == nil || next.at > horizon {
		return false
	}
	if s.chooser != nil {
		s.chooseStep(next.at)
		return true
	}
	ev := *next
	if fromFIFO {
		s.popFIFO()
	} else {
		s.popRoot()
		s.release(ev.slot)
	}
	s.now = ev.at
	s.executed++
	ev.f.Fire()
	return true
}

// chooseStep is Step with an installed chooser, given the earliest
// timestamp at: the whole batch of live events at that timestamp is popped
// from both queues into a scratch buffer (they arrive in schedule order,
// tombstones pruned along the way), the chooser picks one, and the others
// go back on the heap with their original seq so later ties still break
// the same way. No user code runs while events sit in the scratch buffer,
// so nothing can Cancel them mid-decision.
func (s *Simulator) chooseStep(at time.Duration) {
	next, fromFIFO := s.peek()
	s.scratch = s.scratch[:0]
	for next != nil && next.at == at {
		s.scratch = append(s.scratch, *next)
		if fromFIFO {
			s.popFIFO()
		} else {
			s.popRoot()
		}
		next, fromFIFO = s.peek()
	}
	choice := 0
	if k := len(s.scratch); k > 1 {
		choice = s.chooser.Choose(at, k)
		if choice < 0 || choice >= k {
			panic("des: chooser returned choice out of range")
		}
	}
	ev := s.scratch[choice]
	for i, other := range s.scratch {
		if i != choice {
			if other.gen == 0 { // from the FIFO: the heap needs a slot
				other.slot = s.newSlot()
				other.gen = s.slots[other.slot].gen
			}
			s.push(other)
		}
		s.scratch[i] = event{} // release event bodies
	}
	if ev.gen != 0 {
		s.release(ev.slot)
	}
	s.now = at
	s.executed++
	ev.f.Fire()
}

// Run fires, in timestamp order, every event due at or before horizon,
// until none is left or Stop is called. Events due after horizon stay
// queued. On a nil return the clock reads horizon, or Now() from before the
// call if that was later: the clock never moves backwards, so a horizon in
// the past fires nothing and leaves the clock alone. Run returns
// ErrStopped only for explicit stops, leaving the clock at the last event
// fired; draining the queue or reaching the horizon returns nil.
func (s *Simulator) Run(horizon time.Duration) error {
	if err := s.runUntil(horizon); err != nil {
		return err
	}
	if s.now < horizon {
		s.now = horizon
	}
	return nil
}

// RunAll fires events until the queue drains or Stop is called, with no
// horizon. Use only with workloads that terminate on their own.
func (s *Simulator) RunAll() error { return s.runUntil(maxTime) }

// runUntil fires events due at or before horizon until none is left or
// one calls Stop. A stop returns ErrStopped if any event is still queued.
func (s *Simulator) runUntil(horizon time.Duration) error {
	s.stopped = false
	for s.stepBefore(horizon) {
		if s.stopped {
			if next, _ := s.peek(); next != nil {
				return ErrStopped
			}
			return nil
		}
	}
	return nil
}

// heap ordering: earliest timestamp first, schedule order breaking ties.
// The heap is hand-rolled over []event rather than container/heap to keep
// the per-event path free of interface boxing and pointer indirection.

func (s *Simulator) less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *Simulator) push(ev event) {
	s.heap = append(s.heap, ev)
	s.siftUp(len(s.heap) - 1)
}

// popRoot removes heap[0]; callers must copy it out first.
func (s *Simulator) popRoot() {
	n := len(s.heap) - 1
	s.heap[0] = s.heap[n]
	s.heap[n] = event{}
	s.heap = s.heap[:n]
	if n > 1 {
		s.siftDown(0)
	}
}

func (s *Simulator) siftUp(i int) {
	h := s.heap
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(&ev, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

func (s *Simulator) siftDown(i int) {
	h := s.heap
	n := len(h)
	ev := h[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && s.less(&h[r], &h[child]) {
			child = r
		}
		if !s.less(&h[child], &ev) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = ev
}

// Ticker repeatedly schedules fn every period until Stop is called on it.
// The first firing happens one period from the moment NewTicker is called
// (plus the optional phase offset).
type Ticker struct {
	sim     *Simulator
	period  time.Duration
	fn      func()
	tickFn  func() // t.tick bound once, so rescheduling never allocates
	id      EventID
	pending bool
	stop    bool
}

// NewTicker creates and starts a ticker. phase delays the first firing by
// phase beyond one full period when non-zero; pass 0 for a plain ticker.
func (s *Simulator) NewTicker(period, phase time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("des: ticker period must be positive")
	}
	t := &Ticker{sim: s, period: period, fn: fn}
	t.tickFn = t.tick
	t.id = s.Schedule(period+phase, t.tickFn)
	t.pending = true
	return t
}

func (t *Ticker) tick() {
	if t.stop {
		return
	}
	t.pending = false
	t.fn()
	if t.stop {
		return
	}
	if !t.pending {
		// fn may have called Reschedule already; avoid double-scheduling.
		t.id = t.sim.Schedule(t.period, t.tickFn)
		t.pending = true
	}
}

// Stop prevents any further firings.
func (t *Ticker) Stop() {
	t.stop = true
	if t.pending {
		t.sim.Cancel(t.id)
		t.pending = false
	}
}

// Reschedule moves the next firing to one period from now, dropping the
// currently pending firing. It is used by checkpoint schedulers that reset
// their timer when a checkpoint is taken early; it is safe to call from
// inside the ticker's own callback.
func (t *Ticker) Reschedule() {
	if t.stop {
		return
	}
	if t.pending {
		t.sim.Cancel(t.id)
	}
	t.id = t.sim.Schedule(t.period, t.tickFn)
	t.pending = true
}
