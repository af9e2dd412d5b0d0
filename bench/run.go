package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"
)

// params is one benchmark invocation.
type params struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	dir      string
	// setups is how many times set-up is repeated; setup_s is the median.
	setups int
	// simHorizon is the simulated time of one sim1k operation.
	simHorizon time.Duration
}

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units; TestMetricTablesMatchBenchmarkJSON keeps them equal.
type metricDef struct {
	name, unit string
}

// endToEnd is what `-trace 0` prints: one value per metric on every
// workload. "op" is the workload's timed operation — a committed
// checkpoint instance (deps8, live8, payload4), a kill-to-first-commit
// recovery (restart4), one simulated hour at N=1024 (sim1k).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer is what `-trace 1` prints. A metric whose layer the workload
// does not exercise reads 0.
var perLayer = []metricDef{
	{"daemon.participants_per_commit", "count"},
	{"daemon.commit_p50_ms", "ms"},
	{"daemon.commit_p99_ms", "ms"},
	{"daemon.disk_bytes_per_commit", "B"},
	{"daemon.envelopes_per_batch", "count"},
	{"daemon.send_rtt_us", "us"},
	{"daemon.app_send_p50_us", "us"},
	{"daemon.status_rtt_us", "us"},
	{"daemon.solo_commit_ms", "ms"},
	{"daemon.boot_ms", "ms"},
	{"daemon.rollback_ms", "ms"},
	{"daemon.first_commit_ms", "ms"},
	{"daemon.recover_p90_ms", "ms"},
	{"stable.appends_per_commit", "count"},
	{"stable.syncs_per_commit", "count"},
	{"stable.bytes_per_commit", "B"},
	{"stable.replayed_records", "count"},
	{"stable.tentative_us", "us"},
	{"stable.commit_ms", "ms"},
	{"stable.raw_fsync_ms", "ms"},
	{"stable.group_commits_per_sync", "count"},
	{"stable.open_ms_per_krec", "ms"},
	{"chunkstore.new_bytes_per_logical_byte", "ratio"},
	{"chunkstore.dedup_chunk_share", "ratio"},
	{"chunkstore.appends_per_commit", "count"},
	{"chunkstore.syncs_per_commit", "count"},
	{"chunkstore.save_ms", "ms"},
	{"chunkstore.hash_mb_per_s", "MB/s"},
	{"chunkstore.commit_ms", "ms"},
	{"chunkstore.open_ms", "ms"},
	{"chunkstore.materialize_ms", "ms"},
	{"relnet.frames_per_commit", "count"},
	{"relnet.retx_per_kframe", "count"},
	{"relnet.dups_per_kframe", "count"},
	{"relnet.acks_per_frame", "ratio"},
	{"relnet.frame_ns", "ns"},
	{"livenet.link_rtt_us", "us"},
	{"livenet.link_send_ns", "ns"},
	{"wire.msg_encode_ns", "ns"},
	{"wire.msg_decode_ns", "ns"},
	{"wire.msg_bytes", "B"},
	{"wire.msg_allocs", "count"},
	{"wire.record_encode_ns", "ns"},
	{"wire.record_decode_ns", "ns"},
	{"core.instance_us", "us"},
	{"core.msgs_per_instance", "count"},
	{"core.send_ns", "ns"},
	{"core.send_allocs", "count"},
	{"simrt.events", "count"},
	{"simrt.events_per_s", "1/s"},
	{"simrt.tentative_per_init", "count"},
	{"simrt.mutable_per_init", "count"},
	{"simrt.redundant_per_init", "count"},
	{"simrt.sysmsgs_per_init", "count"},
	{"simrt.allocs_per_event", "count"},
	{"des.events_per_s", "1/s"},
	{"harness.ops_per_s", "1/s"},
	{"harness.op_p90_ms", "ms"},
	{"harness.op_p99_ms", "ms"},
	{"harness.fail_share", "ratio"},
	{"harness.quiesce_ms", "ms"},
	{"harness.sender_late_p99_ms", "ms"},
	{"harness.trace_overhead", "ratio"},
}

// metric is one reported value. For a timing, Value is the median of the
// per-segment values and Min, Max and N are the recorded spread: the
// smallest and largest segment value and the samples behind all of them
// (N is 0 for a plain count or ratio).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	N     int     `json:"n,omitempty"`
}

// check is one correctness check; a failed check fails the run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// span is one traced interval around a call the harness makes. Spans of
// one operation share Op; Parent is the ID of the enclosing span (0 for
// an operation's root). Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs and the untraced half of a traced
// run's operations go through the same code.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id-1].End = int64(time.Since(t.t0))
	}
}

// add records a span whose boundaries the caller already measured.
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return len(t.spans)
}

// result is what a run writes to -out; main prints the subset the
// invocation asked for as the last line of standard output.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Correct   bool              `json:"correct"`
	Checks    []check           `json:"checks"`
	Metrics   map[string]metric `json:"metrics"`
	Spans     []span            `json:"spans,omitempty"`
}

// maxConsecutiveFailures ends a run early: a cluster that fails this
// many operations in a row is down or wedged, and the remaining seconds
// would only repeat the same deadline.
const maxConsecutiveFailures = 5

// cpuMark is the processor time used and operations finished when a
// segment ended.
type cpuMark struct {
	cpu time.Duration
	ops int
}

// run is the state of one measured window.
type run struct {
	p   params
	dir string
	rng *rand.Rand
	tr  *tracer // nil unless -trace 1

	res    result
	setups []float64 // seconds, one per set-up

	// The window is cut into segments by time; every timed operation's
	// latency lands in the segment it finished in.
	start    time.Time
	segLen   time.Duration
	seg      int
	segLat   [][]float64 // ms
	marks    []cpuMark   // marks[i] closes segment i-1; marks[0] opens the window
	cpu      func() time.Duration
	ops      int // timed operations finished
	inARow   int // consecutive failures
	tracedMs []float64
	plainMs  []float64

	// onBoot, when set, is handed the window's cluster once it is up and
	// warm. Tests use it to injure the cluster; main never sets it.
	onBoot func(*cluster)
}

func newRun(p params) (*run, error) {
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(p.dir, p.workload+"-")
	if err != nil {
		return nil, err
	}
	// Addresses inside a config must not depend on where the benchmark
	// was started from.
	if dir, err = filepath.Abs(dir); err != nil {
		return nil, err
	}
	r := &run{
		p:   p,
		dir: dir,
		rng: rand.New(rand.NewSource(int64(p.seed))),
		res: result{Workload: p.workload, Seed: p.seed, Seconds: p.seconds, Trace: p.trace, Metrics: make(map[string]metric)},
	}
	if p.trace {
		r.tr = &tracer{t0: time.Now()}
	}
	return r, nil
}

// segments is how many pieces the window is cut into: five, or fewer
// when the run is too short for five to hold enough samples each.
func (p params) segments() int {
	n := int(p.seconds)
	if n > 5 {
		n = 5
	}
	if n < 1 {
		n = 1
	}
	return n
}

// open starts the measured window. cpu reads the processor time the
// system under test has used so far.
func (r *run) open(cpu func() time.Duration) {
	n := r.p.segments()
	r.segLen = time.Duration(r.p.seconds * float64(time.Second) / float64(n))
	r.segLat = make([][]float64, n)
	r.cpu = cpu
	r.marks = []cpuMark{{cpu: cpu()}}
	r.start = time.Now()
}

// running reports whether another operation should start.
func (r *run) running() bool {
	return r.inARow < maxConsecutiveFailures &&
		time.Since(r.start) < time.Duration(r.p.seconds*float64(time.Second))
}

// tracerFor returns the tracer for operation op: in a traced run about
// every second operation records spans and the others do not, so the two
// halves share the same minutes of the same disk and their ratio is the
// tracing overhead. The choice is a hash of op, not its parity, because
// initiators and victims rotate with op and parity would split them.
func (r *run) tracerFor(op int) *tracer {
	if uint32(op)*0x9E3779B1>>31 == 1 {
		return r.tr
	}
	return nil
}

// timed records one finished timed operation.
func (r *run) timed(lat time.Duration, traced bool) {
	r.ops++
	r.inARow = 0
	r.segLat[r.seg] = append(r.segLat[r.seg], ms(lat))
	if r.p.trace {
		if traced {
			r.tracedMs = append(r.tracedMs, ms(lat))
		} else {
			r.plainMs = append(r.plainMs, ms(lat))
		}
	}
	if r.seg < len(r.segLat)-1 && time.Since(r.start) >= time.Duration(r.seg+1)*r.segLen {
		r.marks = append(r.marks, cpuMark{cpu: r.cpu(), ops: r.ops})
		r.seg++
	}
}

// fail counts one failed operation.
func (r *run) fail(format string, args ...any) {
	r.res.Failed++
	r.inARow++
	if r.res.Failed <= 5 {
		fmt.Fprintf(os.Stderr, "bench: failed operation: "+format+"\n", args...)
	}
}

// verify records a correctness check.
func (r *run) verify(name string, err error) {
	c := check{Name: name, OK: err == nil}
	if err != nil {
		c.Detail = err.Error()
		fmt.Fprintf(os.Stderr, "bench: check %s failed: %v\n", name, err)
	}
	r.res.Checks = append(r.res.Checks, c)
}

func (r *run) set(name string, v float64) { r.res.Metrics[name] = metric{Value: v} }

// close ends the window and derives the end-to-end metrics every
// workload shares.
func (r *run) close(peakRSS uint64) {
	r.marks = append(r.marks, cpuMark{cpu: r.cpu(), ops: r.ops})
	elapsed := time.Since(r.start)

	r.res.Metrics["op_p50_ms"] = overSegments(r.segLat, pct(0.50))
	r.res.Metrics["harness.op_p90_ms"] = overSegments(r.segLat, pct(0.90))
	r.res.Metrics["harness.op_p99_ms"] = overSegments(r.segLat, pct(0.99))

	var perOp []float64
	for i := 1; i < len(r.marks); i++ {
		if n := r.marks[i].ops - r.marks[i-1].ops; n > 0 {
			perOp = append(perOp, ms(r.marks[i].cpu-r.marks[i-1].cpu)/float64(n))
		}
	}
	r.res.Metrics["cpu_ms_per_op"] = ofValues(perOp, r.ops)

	r.set("peak_rss_mb", float64(peakRSS)/(1<<20))
	r.res.Metrics["setup_s"] = ofValues(r.setups, len(r.setups))
	r.set("harness.ops_per_s", float64(r.ops)/elapsed.Seconds())
	if r.res.Attempted > 0 {
		r.set("harness.fail_share", float64(r.res.Failed)/float64(r.res.Attempted))
	}
	if len(r.tracedMs) > 0 && len(r.plainMs) > 0 {
		r.set("harness.trace_overhead", percentile(r.tracedMs, 0.5)/percentile(r.plainMs, 0.5))
	}
}

// finish fills in units, zeroes for the metrics this workload has no
// value for, and the verdict.
func (r *run) finish() *result {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			m := r.res.Metrics[d.name]
			m.Unit = d.unit
			r.res.Metrics[d.name] = m
		}
	}
	r.res.Correct = true
	for _, c := range r.res.Checks {
		r.res.Correct = r.res.Correct && c.OK
	}
	if r.tr != nil {
		r.res.Spans = r.tr.spans
	}
	return &r.res
}
