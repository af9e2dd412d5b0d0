// Command bench is the repository's benchmark: five workloads through
// real mcpd child processes and the simulator, measured end to end and
// layer by layer. See README.md in this directory; BENCHMARK.json at the
// repository root names the command, the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"mutablecp/internal/daemon"
)

func main() {
	// The benchmark re-execs itself as each mcpd daemon.
	if daemon.MaybeChild() {
		return
	}
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "deps8, live8, payload4, restart4 or sim1k")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 20, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: spans and layer probes, per-layer metrics")
	dir := fs.String("dir", filepath.Join(".bench_build", "run"), "directory for daemon stores and probe files")
	out := fs.String("out", "", "write the full JSON result (every metric, checks, spans) to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || fs.NArg() > 0 || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: bench -workload deps8|live8|payload4|restart4|sim1k [-seed n] [-seconds s] [-trace 0|1] [-dir d] [-out f]")
		return 2
	}
	res, err := execute(w, params{
		workload:   w.name,
		seed:       *seed,
		seconds:    *seconds,
		trace:      *trace == 1,
		dir:        *dir,
		setups:     3,
		simHorizon: time.Hour,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *out != "" {
		data, err := json.MarshalIndent(res, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: write result:", err)
			return 1
		}
	}
	report(os.Stdout, res)
	return exitCode(res)
}

// execute runs one workload and, when tracing, the probes of the layers
// it exercises.
func execute(w workload, p params) (*result, error) {
	r, err := newRun(p)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.dir) //nolint:errcheck // scratch space; a leftover is harmless
	if err := w.run(r); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if p.trace {
		r.probeLayers(w.layers)
	}
	return r.finish(), nil
}

// exitCode is non-zero when any operation or check failed: a run that
// lost work is not a measurement.
func exitCode(res *result) int {
	if res.Failed > 0 || !res.Correct || res.Attempted == 0 {
		return 1
	}
	return 0
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints every metric of the invocation's kind by name with its
// unit and recorded spread, then the one-line JSON summary.
func report(w *os.File, res *result) {
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	sum := summary{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]metric)}
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v\n", res.Workload, res.Seed, res.Seconds, res.Trace)
	for _, d := range defs {
		m := res.Metrics[d.name]
		sum.Metrics[d.name] = metric{Value: m.Value, Unit: m.Unit}
		fmt.Fprintf(w, "%-40s %14.4f %-6s", d.name, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, "  segments %.4f..%.4f  n=%d", m.Min, m.Max, m.N)
		}
		fmt.Fprintln(w)
	}
	sort.Slice(res.Checks, func(i, j int) bool { return res.Checks[i].Name < res.Checks[j].Name })
	for _, c := range res.Checks {
		fmt.Fprintf(w, "check %-38s ok=%v %s\n", c.Name, c.OK, c.Detail)
	}
	fmt.Fprintf(w, "attempted %d failed %d fail_share %.4f\n", res.Attempted, res.Failed, res.Metrics["harness.fail_share"].Value)
	line, _ := json.Marshal(sum) // plain numbers and strings: cannot fail
	fmt.Fprintf(w, "%s\n", line)
}
