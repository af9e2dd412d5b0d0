package core_test

import (
	"testing"
	"time"

	"mutablecp/internal/core"
	"mutablecp/internal/protocol"
	"mutablecp/internal/trace"
	"mutablecp/internal/xrand"
)

// scaleWorld is an engine-only cluster for the large-N ladder: a FIFO
// message queue, no DES, and an Env whose store and trace callbacks are
// no-ops of constant cost. What remains in the measured loop is the
// protocol's own work — dependency tracking, MR piggybacking, weight
// accounting — which is exactly the overhead the dependency-vector
// representation determines.
type scaleWorld struct {
	n       int
	engines []*core.Engine
	queue   []*protocol.Message
	head    int
}

type scaleEnv struct {
	w  *scaleWorld
	id protocol.ProcessID
}

var _ protocol.Env = (*scaleEnv)(nil)

func (e *scaleEnv) ID() protocol.ProcessID { return e.id }
func (e *scaleEnv) N() int                 { return e.w.n }
func (e *scaleEnv) Now() time.Duration     { return 0 }

func (e *scaleEnv) Send(m *protocol.Message) {
	m.From = e.id
	e.w.queue = append(e.w.queue, m)
}

func (e *scaleEnv) Broadcast(m *protocol.Message) {
	m.From = e.id
	for to := 0; to < e.w.n; to++ {
		if to == e.id {
			continue
		}
		cp := *m
		cp.To = to
		e.w.queue = append(e.w.queue, &cp)
	}
}

func (e *scaleEnv) CaptureState() protocol.State { return protocol.State{Proc: e.id} }

func (e *scaleEnv) SaveTentative(protocol.State, protocol.Trigger) {}
func (e *scaleEnv) SaveMutable(protocol.State, protocol.Trigger)   {}
func (e *scaleEnv) PromoteMutable(protocol.Trigger)                {}
func (e *scaleEnv) DiscardMutable(protocol.Trigger)                {}
func (e *scaleEnv) MakePermanent(protocol.Trigger)                 {}
func (e *scaleEnv) DropTentative(protocol.Trigger)                 {}
func (e *scaleEnv) DeliverApp(*protocol.Message)                   {}
func (e *scaleEnv) BlockApp()                                      {}
func (e *scaleEnv) UnblockApp()                                    {}
func (e *scaleEnv) CheckpointingDone(protocol.Trigger, bool)       {}
func (e *scaleEnv) Trace(trace.Kind, int, string, ...any)          {}
func (e *scaleEnv) Tracing() bool                                  { return false }

func newScaleWorld(n int, opts core.Options) *scaleWorld {
	w := &scaleWorld{n: n, engines: make([]*core.Engine, n)}
	for i := 0; i < n; i++ {
		w.engines[i] = core.NewWithOptions(&scaleEnv{w: w, id: i}, opts)
	}
	return w
}

// pump delivers queued messages in FIFO order until the queue drains.
func (w *scaleWorld) pump() {
	for w.head < len(w.queue) {
		m := w.queue[w.head]
		w.queue[w.head] = nil
		w.head++
		w.engines[m.To].HandleMessage(m)
	}
	w.queue = w.queue[:0]
	w.head = 0
}

// sendComp issues one computation message and delivers it immediately.
func (w *scaleWorld) sendComp(m *protocol.Message, from, to protocol.ProcessID) {
	m.From, m.To = from, to
	w.engines[from].PrepareSend(m)
	w.engines[to].HandleMessage(m)
}

// randomSends issues count computation messages between random distinct
// processes among the first active.
func (w *scaleWorld) randomSends(rng *xrand.Stream, m *protocol.Message, active, count int) {
	for s := 0; s < count; s++ {
		from := rng.Intn(active)
		to := rng.Intn(active - 1)
		if to >= from {
			to++
		}
		w.sendComp(m, from, to)
	}
}

// lapSend is send i of the deterministic lap over the (i, i+1) pairs of
// the first active processes.
func (w *scaleWorld) lapSend(m *protocol.Message, active, i int) {
	w.sendComp(m, i%active, (i+1)%active)
}

// warmSendPath brings the send path to steady state: sends among the
// first active processes, one committed instance (so csn vectors and
// oldCSN hold non-zero values), then one lap over the measured pairs,
// because the truncated channel counters grow on first contact with a
// new peer index and that one-time growth is setup, not steady state.
func warmSendPath(tb testing.TB, n, active, sends int, opts core.Options) (*scaleWorld, *protocol.Message) {
	tb.Helper()
	w := newScaleWorld(n, opts)
	m := new(protocol.Message)
	w.randomSends(xrand.New(uint64(n)), m, active, sends)
	if err := w.engines[0].Initiate(); err != nil {
		tb.Fatal(err)
	}
	w.pump()
	for i := 0; i < active; i++ {
		w.lapSend(m, active, i)
	}
	return w, m
}

func assertSendAllocFree(t *testing.T, n, active, sends int, opts core.Options) {
	t.Helper()
	w, m := warmSendPath(t, n, active, sends, opts)
	var i int
	if allocs := testing.AllocsPerRun(100, func() {
		w.lapSend(m, active, i)
		i++
	}); allocs != 0 {
		t.Fatalf("steady-state send path at N=%d allocates (%v allocs/op, want 0)", n, allocs)
	}
}

// TestSteadySendAllocFree: the computation-message path every application
// message pays must not allocate. A trace argument boxed, a vector cloned
// or a counter regrown fails here.
func TestSteadySendAllocFree(t *testing.T) {
	assertSendAllocFree(t, 1024, 1024, 4*1024, core.Options{})
}

// TestSparseSendAllocFree is the same guard in the scale ladder's regime:
// a million processes of which 64 communicate, so dependency sets and
// channel counters stay sparse. The sparse representations may not trade
// their space win for per-message heap churn. Targeted commit keeps the
// warm-up instance from broadcasting to the full million.
func TestSparseSendAllocFree(t *testing.T) {
	assertSendAllocFree(t, 1<<20, 64, 8*64, core.Options{Dissemination: core.CommitTargeted})
}

// BenchmarkScale65536 is one full checkpointing instance at N = 65536
// per op: a random dependency graph of about 8 edges per process, then
// the request tree and the commit broadcast pumped to completion.
// allocs/op and B/op expose the per-instance cost of the piggybacked MR
// vectors and dependency clones.
func BenchmarkScale65536(b *testing.B) {
	const n = 65536
	w := newScaleWorld(n, core.Options{})
	rng := xrand.New(n)
	var m protocol.Message
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.randomSends(rng, &m, n, 8*n)
		if err := w.engines[rng.Intn(n)].Initiate(); err != nil {
			b.Fatal(err)
		}
		w.pump()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "instances/sec")
}

// BenchmarkSparse1MSend measures the steady-state send path that
// TestSparseSendAllocFree guards, at N = 2^20 with 64 active processes.
func BenchmarkSparse1MSend(b *testing.B) {
	const active = 64
	w, m := warmSendPath(b, 1<<20, active, 8*active, core.Options{Dissemination: core.CommitTargeted})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.lapSend(m, active, i)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sends/sec")
}
