package des_test

// Kernel microbenchmarks. Every benchmark reports allocations and an
// events/sec throughput metric: the per-event cost of the hot path
// (schedule + heap push + pop + fire). bench/'s des.events_per_s is the
// tracked number; these localise a change to one kernel operation.

import (
	"testing"
	"time"

	"mutablecp/internal/des"
)

// reportEventRate attaches an events/sec metric derived from the number of
// events the benchmark actually fired.
func reportEventRate(b *testing.B, fired uint64) {
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(fired)/secs, "events/sec")
	}
}

// BenchmarkDESScheduleAndRun interleaves scheduling with batched draining:
// the mixed workload every simulation cluster generates.
func BenchmarkDESScheduleAndRun(b *testing.B) {
	sim := des.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Schedule(time.Duration(i%1000)*time.Microsecond, func() {})
		if i%1024 == 1023 {
			sim.RunAll() //nolint:errcheck
		}
	}
	sim.RunAll() //nolint:errcheck
	reportEventRate(b, sim.Executed())
}

// BenchmarkDESEventChurn measures the self-perpetuating single-event chain:
// pure Step overhead with a one-element heap.
func BenchmarkDESEventChurn(b *testing.B) {
	sim := des.New()
	var next func()
	count := 0
	next = func() {
		count++
		if count < b.N {
			sim.Schedule(time.Microsecond, next)
		}
	}
	sim.Schedule(time.Microsecond, next)
	b.ReportAllocs()
	b.ResetTimer()
	sim.RunAll() //nolint:errcheck
	reportEventRate(b, sim.Executed())
}

// BenchmarkDESCancel schedules b.N events and cancels them all: the lazy
// tombstone path plus its amortised compaction sweeps.
func BenchmarkDESCancel(b *testing.B) {
	sim := des.New()
	ids := make([]des.EventID, b.N)
	for i := range ids {
		ids[i] = sim.Schedule(time.Second, func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, id := range ids {
		sim.Cancel(id)
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "cancels/sec")
	}
}

// TestCancelAllocFree: cancellation, and the compaction it triggers, must
// not allocate, because the free list is pre-grown on the schedule path.
func TestCancelAllocFree(t *testing.T) {
	sim := des.New()
	ids := make([]des.EventID, 4096)
	for i := range ids {
		ids[i] = sim.Schedule(time.Second, func() {})
	}
	var j int
	if allocs := testing.AllocsPerRun(2048, func() {
		sim.Cancel(ids[j])
		j++
	}); allocs != 0 {
		t.Fatalf("Cancel allocates (%v allocs/op, want 0)", allocs)
	}
}

// TestFIFOAllocFree: once the FIFO's backing array has reached its steady
// size, queueing a delivery behind a deep backlog and firing the head
// allocate nothing.
func TestFIFOAllocFree(t *testing.T) {
	sim := des.New()
	noop := des.Func(func() {})
	var tail time.Duration
	for i := 0; i < 4096; i++ {
		tail += time.Millisecond
		sim.ScheduleFIFO(tail, noop)
	}
	if allocs := testing.AllocsPerRun(8192, func() {
		tail += time.Millisecond
		sim.ScheduleFIFO(tail, noop)
		sim.Step()
	}); allocs != 0 {
		t.Fatalf("ScheduleFIFO+Step allocates (%v allocs/op, want 0)", allocs)
	}
}

// BenchmarkDESRescheduleStorm hammers Ticker.Reschedule the way checkpoint
// schedulers do when every message resets the interval timer: each
// iteration is a cancel plus a re-schedule against a populated heap.
func BenchmarkDESRescheduleStorm(b *testing.B) {
	sim := des.New()
	tk := sim.NewTicker(time.Hour, 0, func() {})
	// Background events so the heap is non-trivial.
	for i := 0; i < 256; i++ {
		sim.Schedule(time.Duration(i+1)*time.Hour, func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk.Reschedule()
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "reschedules/sec")
	}
	tk.Stop()
}
