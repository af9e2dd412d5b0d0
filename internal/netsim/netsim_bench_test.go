package netsim_test

import (
	"testing"
	"time"

	"mutablecp/internal/des"
	"mutablecp/internal/netsim"
)

// BenchmarkMediumBacklog fires events from a saturated shared medium with
// the occupancy measured on the benchmark's sim1k run (N = 1024, one
// simulated hour): about 60k deliveries queued on the medium and 2k timers
// in the kernel's heap, two deliveries firing for each timer. Every
// delivery queues the next transmission behind the backlog and every timer
// re-arms itself, so the occupancy holds for any b.N. One op is one event.
func BenchmarkMediumBacklog(b *testing.B) {
	const (
		backlog = 60_000
		timers  = 2_000
		size    = 100 // bytes: 400 µs at 2 Mbps, so a 24 s backlog
	)
	sim := des.New()
	m := netsim.NewMedium(sim, netsim.WirelessLAN2Mbps)
	var deliver des.Func
	deliver = func() { m.Transmit(size, deliver) }
	for i := 0; i < backlog; i++ {
		m.Transmit(size, deliver)
	}
	// Timer periods spread over 0.1–3.1 s: a mean of 1.6 s for 2k timers
	// is one timer firing per two 400 µs deliveries.
	var k int
	var tick func()
	tick = func() {
		k++
		sim.Schedule(100*time.Millisecond+time.Duration(k%3001)*time.Millisecond, tick)
	}
	for i := 0; i < timers; i++ {
		tick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := sim.Executed()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(sim.Executed()-start)/secs, "events/sec")
	}
}
