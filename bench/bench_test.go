package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"mutablecp/internal/daemon"
)

// TestMain lets the test binary re-exec itself as an mcpd daemon, the
// way the benchmark binary does.
func TestMain(m *testing.M) {
	if daemon.MaybeChild() {
		return
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the contract at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	same := func(kind string, declared []benchMetric, printed []metricDef) {
		if len(declared) != len(printed) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(declared), len(printed))
		}
		for i, d := range declared {
			if d.Name != printed[i].name || d.Unit != printed[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program prints %s (%s)",
					kind, i, d.Name, d.Unit, printed[i].name, printed[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, w.Name, workloads[i].name)
		}
	}
}

// smoke runs one workload for a sub-second window through the code path
// main uses and checks the printed summary against the metric table.
func smoke(t *testing.T, name string, trace bool) *result {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	res, err := execute(w, params{
		workload:   name,
		seed:       7,
		seconds:    0.4,
		trace:      trace,
		dir:        t.TempDir(),
		setups:     1,
		simHorizon: 2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close() //nolint:errcheck
	report(out, res)
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(printed)), "\n")
	var sum summary
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sum); err != nil {
		t.Fatalf("last line is not the summary object: %v\n%s", err, lines[len(lines)-1])
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	if len(sum.Metrics) != len(defs) {
		t.Errorf("summary has %d metrics, want %d", len(sum.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := sum.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: missing from the summary", d.name)
		case m.Unit != d.unit:
			t.Errorf("%s: unit %q, want %q", d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0:
			t.Errorf("%s: value %v", d.name, m.Value)
		case !trace && m.Value == 0:
			t.Errorf("%s: an end-to-end metric must never read 0", d.name)
		}
	}
	if sum.Failed != 0 || !sum.Correct || sum.Attempted < 1 || exitCode(res) != 0 {
		t.Errorf("attempted %d, failed %d, correct %v, exit code %d; checks %+v",
			sum.Attempted, sum.Failed, sum.Correct, exitCode(res), res.Checks)
	}
	if got := res.Metrics["harness.fail_share"].Value; got != 0 {
		t.Errorf("fail_share %v, want 0", got)
	}
	return res
}

// nonZero asserts that the traced run produced a number for each name.
func nonZero(t *testing.T, res *result, names ...string) {
	t.Helper()
	for _, name := range names {
		if res.Metrics[name].Value == 0 {
			t.Errorf("%s: no value in the traced run", name)
		}
	}
}

func TestSmokeDeps8(t *testing.T) { smoke(t, "deps8", false) }

func TestSmokeLive8(t *testing.T) {
	res := smoke(t, "live8", false)
	nonZero(t, res, "daemon.app_send_p50_us", "relnet.frames_per_commit")
}

func TestSmokePayload4Traced(t *testing.T) {
	if testing.Short() {
		t.Skip("traced cluster run with the storage probes; skipped in -short")
	}
	res := smoke(t, "payload4", true)
	nonZero(t, res,
		"daemon.participants_per_commit", "daemon.status_rtt_us", "daemon.solo_commit_ms",
		"stable.syncs_per_commit", "stable.commit_ms", "stable.raw_fsync_ms", "stable.open_ms_per_krec",
		"chunkstore.new_bytes_per_logical_byte", "chunkstore.save_ms", "chunkstore.materialize_ms",
		"relnet.frames_per_commit", "relnet.frame_ns", "livenet.link_rtt_us", "livenet.link_send_ns",
		"wire.msg_encode_ns", "wire.record_decode_ns", "core.instance_us", "core.msgs_per_instance",
		"harness.quiesce_ms", "harness.trace_overhead")
	if got := res.Metrics["core.send_allocs"].Value; got != 0 {
		t.Errorf("core.send_allocs %v: a steady-state send must not allocate", got)
	}
	if len(res.Spans) == 0 {
		t.Fatal("traced run wrote no spans")
	}
	names := make(map[string]bool)
	for _, s := range res.Spans {
		names[s.Name] = true
		if s.End < s.Start || s.Op == 0 {
			t.Errorf("span %+v: bad interval or no operation id", s)
		}
	}
	for _, want := range []string{"op", "deps.send", "quiesce", "checkpoint.rpc"} {
		if !names[want] {
			t.Errorf("no %q span", want)
		}
	}
}

func TestSmokeRestart4Traced(t *testing.T) {
	if testing.Short() {
		t.Skip("traced cluster run with the storage probes; skipped in -short")
	}
	res := smoke(t, "restart4", true)
	nonZero(t, res, "daemon.boot_ms", "daemon.rollback_ms", "daemon.first_commit_ms",
		"daemon.recover_p90_ms", "stable.replayed_records", "chunkstore.open_ms")
	found := false
	for _, c := range res.Checks {
		found = found || c.Name == "trace.phases_sum_to_recover"
	}
	if !found || len(res.Spans) == 0 {
		t.Error("traced restart4 did not check its phase spans against the recovery time")
	}
}

func TestSmokeSim1kTraced(t *testing.T) {
	res := smoke(t, "sim1k", true)
	nonZero(t, res, "simrt.events", "simrt.events_per_s", "simrt.sysmsgs_per_init", "des.events_per_s", "core.send_ns")
}

// TestKilledDaemonFailsTheRun kills one daemon under a running workload:
// the run must end on its own, count failed operations and exit non-zero.
func TestKilledDaemonFailsTheRun(t *testing.T) {
	r, err := newRun(params{workload: "deps8", seed: 1, seconds: 30, dir: t.TempDir(), setups: 1})
	if err != nil {
		t.Fatal(err)
	}
	r.onBoot = func(c *cluster) {
		victim := c.procs[2].Process
		time.AfterFunc(200*time.Millisecond, func() { victim.Kill() }) //nolint:errcheck
	}
	start := time.Now()
	if err := (commits{spec: clusterSpec{n: 4}, deps: 4}).run(r); err != nil {
		t.Fatal(err)
	}
	res := r.finish()
	if took := time.Since(start); took > 20*time.Second {
		t.Errorf("run took %v after a daemon died: it must give up, not wait out the window", took)
	}
	if res.Failed == 0 || res.Correct || exitCode(res) == 0 {
		t.Errorf("failed %d, correct %v, exit code %d: a dead daemon must fail the run", res.Failed, res.Correct, exitCode(res))
	}
	if res.Metrics["harness.fail_share"].Value <= 0 {
		t.Error("fail_share is 0 after a daemon died")
	}
}

func TestPercentile(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, tc := range []struct {
		vals []float64
		p    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{42}, 0.99, 42},
		{ten, 0.5, 5},
		{ten, 0.9, 9},
		{ten, 0.99, 10},
		{ten, 0, 1},
		{[]float64{3, 1, 2}, 0.5, 2},
	} {
		if got := percentile(tc.vals, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.vals, tc.p, got, tc.want)
		}
	}
	if ten[0] != 10 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestOverSegments(t *testing.T) {
	for _, tc := range []struct {
		name string
		segs [][]float64
		want metric
	}{
		{"empty", nil, metric{}},
		{"empty segments are skipped", [][]float64{{}, {4, 2, 6}, {}}, metric{Value: 4, Min: 4, Max: 4, N: 3}},
		{"one slow segment moves max, not the value",
			[][]float64{{1, 2, 3}, {2, 2, 2}, {50, 60, 70}, {1, 3, 5}, {2, 3, 4}},
			metric{Value: 3, Min: 2, Max: 60, N: 15}},
	} {
		if got := overSegments(tc.segs, pct(0.5)); got != tc.want {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

func TestParseProcfs(t *testing.T) {
	// A command name may hold spaces and parentheses.
	stat := "4242 (mcp bench) x) S 1 4242 4242 0 -1 4194304 1500 0 0 0 37 5 0 0 20 0 9 0 123456 1000000 2000 18446744073709551615"
	cpu, err := parseStatCPU(stat)
	if err != nil || cpu != 420*time.Millisecond {
		t.Errorf("parseStatCPU = %v, %v; want 420ms", cpu, err)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 eleven 12 13"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) accepted", bad)
		}
	}
	status := "Name:\tmcpbench\nVmPeak:\t  999999 kB\nVmHWM:\t   12345 kB\nVmRSS:\t   10000 kB\n"
	hwm, err := parseStatusHWM(status)
	if err != nil || hwm != 12345<<10 {
		t.Errorf("parseStatusHWM = %v, %v; want %d", hwm, err, 12345<<10)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tmany kB\n"} {
		if _, err := parseStatusHWM(bad); err == nil {
			t.Errorf("parseStatusHWM(%q) accepted", bad)
		}
	}
	// And the live files parse.
	if cpu, err := procCPU(os.Getpid()); err != nil || cpu < 0 {
		t.Errorf("procCPU(self) = %v, %v", cpu, err)
	}
	if hwm, err := procHWM(os.Getpid()); err != nil || hwm == 0 {
		t.Errorf("procHWM(self) = %v, %v", hwm, err)
	}
}

func TestScheduleTimesFromDueTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	s := schedule{interval: 250 * time.Microsecond}
	s.next = t0
	for i, tc := range []struct {
		start, end   int // microseconds after t0
		late, lat    int
		nextDueAfter int
	}{
		{0, 100, 0, 100, 250},        // on time
		{250, 900, 0, 650, 500},      // a stall: this send took 650 us
		{900, 1000, 400, 500, 750},   // due at 500, started 400 late, charged from 500
		{1000, 1050, 250, 300, 1000}, // still catching up: due at 750
		{1050, 1100, 50, 100, 1250},  // due at 1000
		{1250, 1300, 0, 50, 1500},    // caught up
	} {
		late, lat := s.sent(at(tc.start), at(tc.end))
		if late != time.Duration(tc.late)*time.Microsecond || lat != time.Duration(tc.lat)*time.Microsecond {
			t.Errorf("send %d: late %v latency %v, want %dus %dus", i, late, lat, tc.late, tc.lat)
		}
		if !s.next.Equal(at(tc.nextDueAfter)) {
			t.Errorf("send %d: next due %v after t0, want %dus", i, s.next.Sub(t0), tc.nextDueAfter)
		}
	}
	// Resuming restarts the schedule: a pause is not lateness.
	s.next = at(5000)
	if late, lat := s.sent(at(5000), at(5060)); late != 0 || lat != 60*time.Microsecond {
		t.Errorf("after restart: late %v latency %v", late, lat)
	}
}
