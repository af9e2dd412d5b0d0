package des_test

import (
	"testing"
	"time"

	"mutablecp/internal/des"
)

func TestScheduleOrdering(t *testing.T) {
	sim := des.New()
	var order []int
	sim.Schedule(3*time.Second, func() { order = append(order, 3) })
	sim.Schedule(1*time.Second, func() { order = append(order, 1) })
	sim.Schedule(2*time.Second, func() { order = append(order, 2) })
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if sim.Now() != 3*time.Second {
		t.Fatalf("clock = %v, want 3s", sim.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	sim := des.New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		sim.Schedule(time.Second, func() { order = append(order, i) })
	}
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if order[i] != i {
			t.Fatalf("same-instant events fired out of schedule order at %d: %v", i, order[:i+1])
		}
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	sim := des.New()
	fired := false
	sim.Schedule(-5*time.Second, func() { fired = true })
	sim.Step()
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
	if sim.Now() != 0 {
		t.Fatalf("clock moved backwards: %v", sim.Now())
	}
}

func TestScheduleAtPastClamps(t *testing.T) {
	sim := des.New()
	sim.Schedule(10*time.Second, func() {})
	sim.Step()
	var at time.Duration
	sim.ScheduleAt(time.Second, func() { at = sim.Now() })
	sim.Step()
	if at != 10*time.Second {
		t.Fatalf("past event fired at %v, want clamp to 10s", at)
	}
}

func TestCancel(t *testing.T) {
	sim := des.New()
	fired := false
	id := sim.Schedule(time.Second, func() { fired = true })
	if !sim.Cancel(id) {
		t.Fatal("cancel reported failure for pending event")
	}
	if sim.Cancel(id) {
		t.Fatal("double cancel reported success")
	}
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelAfterFire(t *testing.T) {
	sim := des.New()
	id := sim.Schedule(time.Second, func() {})
	sim.Step()
	if sim.Cancel(id) {
		t.Fatal("cancel of fired event reported success")
	}
}

func TestRunHorizon(t *testing.T) {
	sim := des.New()
	fired := 0
	sim.Schedule(1*time.Second, func() { fired++ })
	sim.Schedule(10*time.Second, func() { fired++ })
	if err := sim.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d events before horizon, want 1", fired)
	}
	if sim.Now() != 5*time.Second {
		t.Fatalf("clock = %v, want horizon 5s", sim.Now())
	}
	if sim.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", sim.Pending())
	}
	// Resuming past the horizon fires the rest.
	if err := sim.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d after second run, want 2", fired)
	}
}

func TestRunEmptyAdvancesToHorizon(t *testing.T) {
	sim := des.New()
	if err := sim.Run(7 * time.Second); err != nil {
		t.Fatal(err)
	}
	if sim.Now() != 7*time.Second {
		t.Fatalf("clock = %v, want 7s", sim.Now())
	}
}

// TestRunPastHorizonKeepsClock: a Run whose horizon is behind the clock
// fires nothing and leaves the clock where it was, so an event scheduled
// afterwards cannot fire before one that has already fired.
func TestRunPastHorizonKeepsClock(t *testing.T) {
	sim := des.New()
	var at []time.Duration
	record := func() { at = append(at, sim.Now()) }
	sim.Schedule(5*time.Second, record)
	sim.Schedule(20*time.Second, record)
	if err := sim.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if sim.Now() != 10*time.Second {
		t.Fatalf("clock = %v after a past horizon, want 10s", sim.Now())
	}
	sim.Schedule(0, record)
	if err := sim.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{5 * time.Second, 10 * time.Second}
	if len(at) != len(want) || at[0] != want[0] || at[1] != want[1] {
		t.Fatalf("fired at %v, want %v", at, want)
	}
}

func TestStop(t *testing.T) {
	sim := des.New()
	count := 0
	var self func()
	self = func() {
		count++
		if count == 3 {
			sim.Stop()
		}
		sim.Schedule(time.Second, self)
	}
	sim.Schedule(time.Second, self)
	err := sim.RunAll()
	if err != des.ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestEventScheduledDuringEvent(t *testing.T) {
	sim := des.New()
	var order []string
	sim.Schedule(time.Second, func() {
		order = append(order, "outer")
		sim.Schedule(0, func() { order = append(order, "inner-now") })
		sim.Schedule(time.Second, func() { order = append(order, "inner-later") })
	})
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []string{"outer", "inner-now", "inner-later"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTickerFiresPeriodically(t *testing.T) {
	sim := des.New()
	var times []time.Duration
	tk := sim.NewTicker(time.Second, 0, func() { times = append(times, sim.Now()) })
	sim.Run(5500 * time.Millisecond)
	tk.Stop()
	if len(times) != 5 {
		t.Fatalf("fired %d times, want 5 (%v)", len(times), times)
	}
	for i, at := range times {
		want := time.Duration(i+1) * time.Second
		if at != want {
			t.Fatalf("firing %d at %v, want %v", i, at, want)
		}
	}
}

func TestTickerPhase(t *testing.T) {
	sim := des.New()
	var first time.Duration = -1
	tk := sim.NewTicker(time.Second, 300*time.Millisecond, func() {
		if first < 0 {
			first = sim.Now()
		}
	})
	defer tk.Stop()
	sim.Run(2 * time.Second)
	if first != 1300*time.Millisecond {
		t.Fatalf("first firing at %v, want 1.3s", first)
	}
}

func TestTickerRescheduleFromCallback(t *testing.T) {
	sim := des.New()
	var times []time.Duration
	var tk *des.Ticker
	tk = sim.NewTicker(time.Second, 0, func() {
		times = append(times, sim.Now())
		// Rescheduling from inside the callback must not double-schedule.
		tk.Reschedule()
	})
	sim.Run(4500 * time.Millisecond)
	tk.Stop()
	if len(times) != 4 {
		t.Fatalf("fired %d times, want 4: %v", len(times), times)
	}
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 4 {
		t.Fatalf("stopped ticker kept firing: %v", times)
	}
}

func TestTickerRescheduleDelaysNextFiring(t *testing.T) {
	sim := des.New()
	var times []time.Duration
	tk := sim.NewTicker(10*time.Second, 0, func() { times = append(times, sim.Now()) })
	// At t=5s an "early checkpoint" resets the timer: next firing at 15s.
	sim.Schedule(5*time.Second, tk.Reschedule)
	sim.Run(16 * time.Second)
	tk.Stop()
	if len(times) != 1 || times[0] != 15*time.Second {
		t.Fatalf("firings = %v, want [15s]", times)
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	sim := des.New()
	count := 0
	var tk *des.Ticker
	tk = sim.NewTicker(time.Second, 0, func() {
		count++
		tk.Stop()
	})
	sim.Run(10 * time.Second)
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
}

func TestExecutedCount(t *testing.T) {
	sim := des.New()
	for i := 0; i < 10; i++ {
		sim.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	sim.RunAll()
	if sim.Executed() != 10 {
		t.Fatalf("executed = %d, want 10", sim.Executed())
	}
}

// TestRescheduleStormBoundedTombstones proves lazy cancellation cannot leak:
// a million Ticker.Reschedule calls (each a cancel + re-schedule at the same
// virtual instant, the worst case for tombstone accumulation) must leave the
// pending count exact and the tombstone backlog bounded by the live event
// count, not by the number of cancellations.
func TestRescheduleStormBoundedTombstones(t *testing.T) {
	sim := des.New()
	fired := 0
	tk := sim.NewTicker(time.Hour, 0, func() { fired++ })
	// A plausible population of live background events.
	const background = 100
	for i := 0; i < background; i++ {
		sim.Schedule(time.Duration(i+2)*time.Hour, func() {})
	}
	const storms = 1_000_000
	for i := 0; i < storms; i++ {
		tk.Reschedule()
		if p := sim.Pending(); p != background+1 {
			t.Fatalf("after %d reschedules Pending() = %d, want %d", i+1, p, background+1)
		}
	}
	// Compaction keeps cancelled entries bounded by the live population,
	// so memory cannot grow with the number of reschedules.
	if ts := sim.Tombstones(); ts > background+1 {
		t.Fatalf("tombstones = %d after %d reschedules, want <= %d", ts, storms, background+1)
	}
	if err := sim.Run(90 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("ticker fired %d times after storm, want exactly 1", fired)
	}
}

// TestCancelStaleIDAfterSlotReuse exercises the generation scheme: an
// EventID held across its event's firing must not cancel an unrelated
// event that recycled the same slot.
func TestCancelStaleIDAfterSlotReuse(t *testing.T) {
	sim := des.New()
	stale := sim.Schedule(time.Second, func() {})
	sim.Step()
	fired := false
	fresh := sim.Schedule(time.Second, func() { fired = true })
	if sim.Cancel(stale) {
		t.Fatal("stale id cancelled a recycled slot")
	}
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("event on recycled slot did not fire")
	}
	if sim.Cancel(fresh) {
		t.Fatal("cancel after firing reported success")
	}
}

func TestTickerPanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-positive ticker period")
		}
	}()
	des.New().NewTicker(0, 0, func() {})
}
