// Package trace records structured simulation events.
//
// The tracer is what the consistency checker and the scenario tests consume:
// every computation-message send/receive and every checkpoint action is
// logged with its virtual timestamp, so a test can replay a figure from the
// paper and assert exactly which checkpoints were taken and why.
package trace

import (
	"fmt"
	"sync"
	"time"
)

// Kind classifies a trace event.
type Kind int

// Trace event kinds.
const (
	KindSend Kind = iota + 1
	KindReceive
	KindTentative
	KindMutable
	KindPromote
	KindDiscardMutable
	KindPermanent
	KindRequest
	KindReply
	KindCommit
	KindAbort
	KindBlock
	KindUnblock
	KindInitiate
	KindNote
)

var kindNames = map[Kind]string{
	KindSend:           "send",
	KindReceive:        "recv",
	KindTentative:      "tentative",
	KindMutable:        "mutable",
	KindPromote:        "promote",
	KindDiscardMutable: "discard-mutable",
	KindPermanent:      "permanent",
	KindRequest:        "request",
	KindReply:          "reply",
	KindCommit:         "commit",
	KindAbort:          "abort",
	KindBlock:          "block",
	KindUnblock:        "unblock",
	KindInitiate:       "initiate",
	KindNote:           "note",
}

// String returns the event kind name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one recorded occurrence.
type Event struct {
	At      time.Duration
	Kind    Kind
	Process int // acting process
	Peer    int // other process involved, -1 if none
	Detail  string
}

// String renders the event compactly.
func (e Event) String() string {
	if e.Peer >= 0 {
		return fmt.Sprintf("[%v] P%d %s P%d %s", e.At, e.Process, e.Kind, e.Peer, e.Detail)
	}
	return fmt.Sprintf("[%v] P%d %s %s", e.At, e.Process, e.Kind, e.Detail)
}

// Log collects events. The zero value is usable and unbounded; construct
// with NewRing to keep only the most recent events. Log is safe for
// concurrent use.
type Log struct {
	mu    sync.Mutex
	ring  int // 0 = unbounded
	evs   []Event
	start int // ring read offset
	count int
}

// New returns an unbounded log.
func New() *Log { return &Log{} }

// NewRing returns a log that keeps only the latest n events.
func NewRing(n int) *Log {
	if n <= 0 {
		panic("trace: ring size must be positive")
	}
	return &Log{ring: n, evs: make([]Event, 0, n)}
}

// Add records an event.
func (l *Log) Add(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ring == 0 {
		l.evs = append(l.evs, e)
		l.count++
		return
	}
	if len(l.evs) < l.ring {
		l.evs = append(l.evs, e)
	} else {
		l.evs[l.start] = e
		l.start = (l.start + 1) % l.ring
	}
	l.count++
}

// Addf records an event with a formatted detail string.
func (l *Log) Addf(at time.Duration, kind Kind, process, peer int, format string, args ...any) {
	l.Add(Event{At: at, Kind: kind, Process: process, Peer: peer, Detail: fmt.Sprintf(format, args...)})
}

// Len returns the total number of events recorded (including any that were
// evicted from a ring).
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count
}

// Events returns a copy of the retained events in order.
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, len(l.evs))
	if l.ring == 0 || len(l.evs) < l.ring {
		out = append(out, l.evs...)
		return out
	}
	out = append(out, l.evs[l.start:]...)
	out = append(out, l.evs[:l.start]...)
	return out
}
