package main

import (
	"math/rand"
	"runtime"
	"sync"
	"time"

	"mutablecp/internal/daemon"
)

// sendRate is live8's application traffic: an open loop at a fixed rate,
// in messages per second. It is what one request in flight can sustain
// while eight daemons and an instance share this sandbox's two cores (a
// Send then takes ≈0.6 ms); at 2,000 the round trip exceeds the interval
// and at 4,000 the generator ran 4–9 ms late at p99, a closed loop in
// all but name.
const sendRate = 1000

// schedule is the open loop's due-time accounting, kept apart from the
// goroutine so it can be tested without a clock. A send is timed from
// when it was due, not from when the sender got round to it: a stall
// charges the wait to every send queued behind it.
type schedule struct {
	interval time.Duration
	next     time.Time // when the next send is due; in the past when the generator runs late
}

// sent accounts one send that started at start and finished at end: it
// returns how late the generator started it and the latency from its due
// time, then advances the schedule by exactly one interval — a late send
// does not push the ones behind it back.
func (s *schedule) sent(start, end time.Time) (late, latency time.Duration) {
	late = start.Sub(s.next)
	if late < 0 {
		late = 0
	}
	latency = end.Sub(s.next)
	s.next = s.next.Add(s.interval)
	return late, latency
}

// sender is live8's application: one goroutine, one request in flight,
// sending from the current initiator to seeded uniform destinations,
// through its own control connections, while an instance is in progress
// there. Why only the initiator sends, and only once its instance has
// begun, is README.md's first finding: any other traffic during an
// instance lets the engine commit a line with an orphan message.
type sender struct {
	clients []*daemon.Client
	rng     *rand.Rand
	payload []byte

	mu      sync.Mutex
	cond    *sync.Cond
	active  bool // the harness wants traffic
	src     int  // the daemon that sends it: the instance's initiator
	sending bool // a send is in flight
	stopped bool

	// Owned by the goroutine while active; read by the harness after
	// pause or stop.
	latency []float64 // us, from due time
	late    []float64 // ms
	errs    int

	done     chan struct{}
	stopOnce sync.Once
}

func newSender(cfg *daemon.Config, seed int64) (*sender, error) {
	s := &sender{
		rng:     rand.New(rand.NewSource(seed)),
		payload: make([]byte, 64),
		done:    make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	for _, nc := range cfg.Nodes {
		cl, err := daemon.Dial(nc.CtlAddr)
		if err != nil {
			s.closeClients()
			return nil, err
		}
		s.clients = append(s.clients, cl)
	}
	go s.loop()
	return s, nil
}

func (s *sender) closeClients() {
	for _, cl := range s.clients {
		cl.Close() //nolint:errcheck
	}
}

// resume lets daemon src send as soon as it is inside an instance.
func (s *sender) resume(src int) {
	s.mu.Lock()
	s.active, s.src = true, src
	s.cond.Broadcast()
	s.mu.Unlock()
}

// pause stops the traffic and returns once the send in flight, if any,
// has been answered, so nothing of this burst is still on its way into a
// daemon when the harness starts to quiesce.
func (s *sender) pause() {
	s.mu.Lock()
	s.active = false
	for s.sending {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// stop ends the goroutine and closes its connections. The harness stops
// the sender before it reads the samples, and again on its way out.
func (s *sender) stop() {
	s.stopOnce.Do(func() {
		s.mu.Lock()
		s.active, s.stopped = false, true
		s.cond.Broadcast()
		s.mu.Unlock()
		<-s.done
		s.closeClients()
	})
}

// running reports whether the harness still wants traffic; it marks a
// send as in flight when it does.
func (s *sender) running() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sending = s.active
	return s.active
}

// idle marks the send in flight as answered.
func (s *sender) idle() {
	s.mu.Lock()
	s.sending = false
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *sender) loop() {
	defer close(s.done)
	sch := schedule{interval: time.Second / sendRate}
	n := len(s.clients)
	for {
		s.mu.Lock()
		for !s.active && !s.stopped {
			s.cond.Wait()
		}
		if s.stopped {
			s.mu.Unlock()
			return
		}
		src := s.src
		s.mu.Unlock()

		// The first message must follow the initiation: one that is in
		// flight when the instance starts is the traffic the engine
		// mishandles. Status runs on the daemon's loop, so once it reports
		// an instance in progress every later Send is behind Initiate.
		started := false
		for !started && s.running() {
			st, err := s.clients[src].Status()
			if err != nil {
				s.errs++
			}
			started = err == nil && st.InProgress
			s.idle()
		}
		sch.next = time.Now() // a pause is not lateness
		for started {
			// time.Sleep overshoots by tens of microseconds, a good part
			// of the interval: sleep short and yield the rest.
			if wait := time.Until(sch.next); wait > 100*time.Microsecond {
				time.Sleep(wait - 100*time.Microsecond)
			}
			for time.Now().Before(sch.next) {
				runtime.Gosched()
			}
			if !s.running() {
				break
			}
			dst := s.rng.Intn(n - 1)
			if dst >= src {
				dst++
			}
			start := time.Now()
			err := s.clients[src].Send(dst, s.payload)
			late, lat := sch.sent(start, time.Now())
			if err != nil {
				s.errs++
			} else {
				s.latency = append(s.latency, us(lat))
				s.late = append(s.late, ms(late))
			}
			s.idle()
		}
	}
}
