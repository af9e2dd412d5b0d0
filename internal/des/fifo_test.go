package des

import (
	"math/rand"
	"testing"
	"time"
)

// firing is one fired event, or, with label stopLabel, the clock after a
// Run returned.
type firing struct {
	at    time.Duration
	label int
}

const stopLabel = -1

// orderScript drives a seeded random mix of heap events, in-order and
// out-of-order FIFO events, cancellations, Reschedule storms, same-instant
// events scheduled from callbacks, and Run stops. With fifo false every
// ScheduleFIFO becomes a ScheduleAt: the all-heap reference order.
type orderScript struct {
	sim     *Simulator
	rng     *rand.Rand
	fifo    bool
	tail    time.Duration // the last in-order FIFO time, like a medium's freeAt
	ids     []EventID
	tickers []*Ticker
	labels  int
	fired   []firing

	fallbacks int // out-of-order ScheduleFIFO calls that went to the heap
	queued    int // ScheduleFIFO calls that went to the FIFO
	spanning  int // chooser batches holding events from both queues
}

// runOrderScript runs the script for seed. choose, if non-nil, is
// installed as the chooser; it may draw on the script's generator, which
// then stays in step between two runs only if both present the same
// batches.
func runOrderScript(t *testing.T, seed int64, fifo bool, choose func(sc *orderScript, k int) int) *orderScript {
	t.Helper()
	sc := &orderScript{sim: New(), rng: rand.New(rand.NewSource(seed)), fifo: fifo}
	if choose != nil {
		sc.sim.SetChooser(chooserFunc(func(_ time.Duration, k int) int {
			var fromFIFO, fromHeap bool
			for i := range sc.sim.scratch[:k] {
				if sc.sim.scratch[i].gen == 0 {
					fromFIFO = true
				} else {
					fromHeap = true
				}
			}
			if fromFIFO && fromHeap {
				sc.spanning++
			}
			return choose(sc, k)
		}))
	}
	for i, period := range []time.Duration{3 * time.Second, 5 * time.Second} {
		label := -2 - i
		sc.tickers = append(sc.tickers, sc.sim.NewTicker(period, 0, func() { sc.fire(label, 2) }))
	}
	for round := 0; round < 40; round++ {
		for i := sc.rng.Intn(20); i > 0; i-- {
			sc.schedule(0)
		}
		// Horizons two seconds behind the clock to ten ahead of it.
		if err := sc.sim.Run(sc.sim.Now() + time.Duration(sc.rng.Intn(13)-2)*time.Second); err != nil {
			t.Fatal(err)
		}
		sc.fired = append(sc.fired, firing{sc.sim.Now(), stopLabel})
	}
	for _, tk := range sc.tickers {
		tk.Stop()
	}
	if err := sc.sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if p := sc.sim.Pending(); p != 0 {
		t.Fatalf("seed %d: %d events pending after RunAll", seed, p)
	}
	return sc
}

// delay is a coarse random delay, so many events share an instant.
func (sc *orderScript) delay() time.Duration {
	return time.Duration(sc.rng.Intn(8)) * time.Second
}

func (sc *orderScript) schedule(depth int) {
	label := sc.labels
	sc.labels++
	fn := func() { sc.fire(label, depth) }
	now := sc.sim.Now()
	switch op := sc.rng.Intn(10); {
	case op < 3:
		sc.ids = append(sc.ids, sc.sim.ScheduleAt(now+sc.delay(), fn))
	case op < 6:
		if sc.tail < now {
			sc.tail = now
		}
		sc.tail += time.Duration(sc.rng.Intn(3)) * time.Second
		sc.scheduleFIFO(sc.tail, fn)
	case op < 8:
		sc.scheduleFIFO(now+sc.delay(), fn)
	case op == 8:
		if len(sc.ids) > 0 {
			sc.sim.Cancel(sc.ids[sc.rng.Intn(len(sc.ids))])
		}
	default:
		tk := sc.tickers[sc.rng.Intn(len(sc.tickers))]
		for i := sc.rng.Intn(6); i >= 0; i-- {
			tk.Reschedule()
		}
	}
}

func (sc *orderScript) scheduleFIFO(at time.Duration, fn func()) {
	if !sc.fifo {
		sc.sim.ScheduleAt(at, fn)
		return
	}
	heap, fifo := len(sc.sim.heap), sc.sim.queued
	sc.sim.ScheduleFIFO(at, Func(fn))
	if len(sc.sim.heap) > heap {
		sc.fallbacks++
	}
	if sc.sim.queued > fifo {
		sc.queued++
	}
}

// fire records the firing and schedules up to two more events from the
// callback, some of them at the current instant.
func (sc *orderScript) fire(label, depth int) {
	sc.fired = append(sc.fired, firing{sc.sim.Now(), label})
	if depth >= 3 {
		return
	}
	for i := sc.rng.Intn(3); i > 0; i-- {
		sc.schedule(depth + 1)
	}
}

func sameFirings(t *testing.T, seed int64, what string, got, want []firing) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("seed %d, %s: %d firings, want %d", seed, what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seed %d, %s: firing %d is %+v, want %+v", seed, what, i, got[i], want[i])
		}
	}
}

// TestFIFOOrderEquivalence: moving events from ScheduleAt to ScheduleFIFO
// never changes the firing order, with or without a chooser.
func TestFIFOOrderEquivalence(t *testing.T) {
	zero := func(*orderScript, int) int { return 0 }
	random := func(sc *orderScript, k int) int { return sc.rng.Intn(k) }
	var fallbacks, queued, spanning int
	for seed := int64(1); seed <= 50; seed++ {
		ref := runOrderScript(t, seed, false, nil)
		got := runOrderScript(t, seed, true, nil)
		sameFirings(t, seed, "FIFO vs all-heap", got.fired, ref.fired)
		fallbacks += got.fallbacks
		queued += got.queued

		// Choice 0 is the default order, and a batch spanning both queues
		// is presented in schedule order: a random chooser makes the same
		// picks from the same positions in both runs.
		sameFirings(t, seed, "choice 0 vs default", runOrderScript(t, seed, true, zero).fired, ref.fired)
		ch := runOrderScript(t, seed, true, random)
		sameFirings(t, seed, "random chooser, FIFO vs all-heap", ch.fired, runOrderScript(t, seed, false, random).fired)
		spanning += ch.spanning
	}
	if fallbacks == 0 || queued == 0 || spanning == 0 {
		t.Fatalf("script missed a path: %d heap fallbacks, %d FIFO events, %d spanning batches", fallbacks, queued, spanning)
	}
	t.Logf("%d heap fallbacks, %d FIFO events, %d spanning batches", fallbacks, queued, spanning)
}
