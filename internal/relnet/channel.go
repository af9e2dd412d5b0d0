// Package relnet holds the transport-agnostic halves of one ordered-pair
// ARQ channel, the reliable FIFO channel the Cao–Singhal computation
// model assumes (§2.1). The DES decorator (netsim.Reliable) instantiates
// them with T=func() — a deliver closure executed in virtual time — and
// the multi-process daemon (internal/daemon) with T=[]byte, the
// wire-framed message bytes it retransmits across real sockets. Both
// speak the same protocol:
// per-channel sequence numbers under a channel incarnation (generation),
// cumulative acknowledgements, receiver-side resequencing with duplicate
// suppression, and generation adoption so a reopened channel supersedes
// a stale one.
package relnet

import "time"

// Retransmission pacing for both drivers: a channel's first timeout, and
// the cap its exponential backoff doubles up to.
const (
	BaseRTO = 100 * time.Millisecond
	MaxRTO  = 2 * time.Second
)

// OutFrame is one in-flight data frame on a channel's sender half.
type OutFrame[T any] struct {
	Seq     uint64
	Size    int
	Payload T
}

// Outbox is the sender half: it assigns sequence numbers, keeps the
// unacked backlog, and consumes cumulative acks. It is pure state — the
// owner supplies timers, retransmission policy, and the transport.
type Outbox[T any] struct {
	gen     uint64
	nextSeq uint64
	unacked []OutFrame[T]
}

// Gen returns the current channel incarnation.
func (o *Outbox[T]) Gen() uint64 { return o.gen }

// Len reports the unacked backlog size.
func (o *Outbox[T]) Len() int { return len(o.unacked) }

// Push appends a new frame to the backlog and returns it with its
// assigned sequence number.
func (o *Outbox[T]) Push(size int, payload T) OutFrame[T] {
	f := OutFrame[T]{Seq: o.nextSeq, Size: size, Payload: payload}
	o.nextSeq++
	o.unacked = append(o.unacked, f)
	return f
}

// Ack consumes a cumulative acknowledgement for the given incarnation:
// every frame below cum leaves the backlog. It reports whether any frame
// was newly acked (progress — fresh evidence the peer is alive) and
// whether the ack was stale (wrong incarnation; ignore it).
func (o *Outbox[T]) Ack(gen, cum uint64) (progress, stale bool) {
	if gen != o.gen {
		return false, true
	}
	for len(o.unacked) > 0 && o.unacked[0].Seq < cum {
		o.unacked = o.unacked[1:]
		progress = true
	}
	return progress, false
}

// Oldest returns the lowest unacked frame (the retransmission candidate).
func (o *Outbox[T]) Oldest() (OutFrame[T], bool) {
	if len(o.unacked) == 0 {
		var zero OutFrame[T]
		return zero, false
	}
	return o.unacked[0], true
}

// Pending returns the live backlog, oldest first. The slice aliases
// internal state: read it synchronously, do not retain.
func (o *Outbox[T]) Pending() []OutFrame[T] { return o.unacked }

// Discard drops the whole backlog (the give-up verdict: the backlog is
// abandoned, the channel itself can reopen later).
func (o *Outbox[T]) Discard() { o.unacked = nil }

// Reopen starts incarnation gen: the backlog (if any) is renumbered from
// sequence 0 in order, so a receiver adopting the new incarnation
// resequences it from scratch. Gen must exceed the current incarnation —
// receivers discard frames from any gen below the newest they have seen.
func (o *Outbox[T]) Reopen(gen uint64) {
	o.gen = gen
	for i := range o.unacked {
		o.unacked[i].Seq = uint64(i)
	}
	o.nextSeq = uint64(len(o.unacked))
}

// Verdict classifies one arriving data frame at the receiver half.
type Verdict int

// Accept verdicts.
const (
	// VerdictStale: the frame belongs to a superseded incarnation; drop
	// it and do NOT ack (its sequence space is dead).
	VerdictStale Verdict = iota
	// VerdictDelivered: the frame was next in sequence; it (and possibly
	// parked successors) were handed to the deliver callback.
	VerdictDelivered
	// VerdictDuplicate: already delivered or already parked; dropped.
	VerdictDuplicate
	// VerdictBuffered: out of order; parked until the gap fills.
	VerdictBuffered
)

// Inbox is the receiver half: strict in-sequence delivery with
// out-of-order buffering, duplicate suppression, and incarnation
// adoption.
type Inbox[T any] struct {
	gen      uint64
	expected uint64
	buf      map[uint64]T
}

// Gen returns the incarnation this inbox currently follows.
func (in *Inbox[T]) Gen() uint64 { return in.gen }

// Cum returns the cumulative acknowledgement point: everything below it
// has been delivered.
func (in *Inbox[T]) Cum() uint64 { return in.expected }

// Buffered reports how many frames are parked waiting for a gap to fill.
func (in *Inbox[T]) Buffered() int { return len(in.buf) }

// Accept processes one data frame. In-sequence frames (and any parked
// successors they release) are passed to deliver in order, synchronously.
// The caller acks with (Gen, Cum) afterwards unless the verdict is
// VerdictStale.
func (in *Inbox[T]) Accept(gen, seq uint64, payload T, deliver func(T)) Verdict {
	if gen < in.gen {
		// A frame from a superseded incarnation of the channel. Its
		// sequence numbers belong to the old incarnation; admitting it
		// would wedge (or corrupt) the fresh incarnation's resequencing
		// state. The sender already abandoned that numbering, so no ack.
		return VerdictStale
	}
	if gen > in.gen {
		// The sender reopened the channel: adopt the new incarnation. Any
		// parked frames belong to the old one and will never complete.
		in.Reset(gen)
	}
	switch {
	case seq < in.expected:
		return VerdictDuplicate
	case seq == in.expected:
		deliver(payload)
		in.expected++
		for {
			next, ok := in.buf[in.expected]
			if !ok {
				return VerdictDelivered
			}
			delete(in.buf, in.expected)
			deliver(next)
			in.expected++
		}
	default:
		if _, dup := in.buf[seq]; dup {
			return VerdictDuplicate
		}
		if in.buf == nil {
			in.buf = make(map[uint64]T)
		}
		in.buf[seq] = payload
		return VerdictBuffered
	}
}

// Reset adopts incarnation gen with a fresh sequence space, discarding
// parked frames.
func (in *Inbox[T]) Reset(gen uint64) {
	in.gen = gen
	in.expected = 0
	in.buf = make(map[uint64]T)
}
