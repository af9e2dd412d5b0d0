package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"mutablecp/internal/daemon"
)

// runCaptured runs mcpctl with args and returns what it printed.
func runCaptured(t *testing.T, args ...string) (string, error) {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	runErr := run(args)
	os.Stdout = stdout
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data), runErr
}

// TestUsageErrors pins the checks that run before any daemon is dialed.
func TestUsageErrors(t *testing.T) {
	cfg := filepath.Join(t.TempDir(), "absent-cluster.json")
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no subcommand", []string{"-config", cfg}, "a subcommand is expected"},
		{"no arguments", nil, "a subcommand is expected"},
		{"unknown flag", []string{"-no-such-flag", "status"}, "flag provided but not defined"},
		{"missing -config", []string{"status"}, "-config is required"},
		{"trailing arguments", []string{"-config", cfg, "send", "-from", "0", "extra"}, `unexpected arguments after "send"`},
		{"absent config file", []string{"-config", cfg, "status"}, "read config"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := runCaptured(t, tc.args...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) = %v, want error containing %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestAgainstCluster drives the read-only subcommands against a 3-daemon
// in-process cluster with a payload plane that has committed one
// checkpoint. metrics and store print the disk counters the stores take
// from seglog.Metrics, so a renamed or dropped field shows here.
func TestAgainstCluster(t *testing.T) {
	cfg, err := daemon.LoopbackConfig(3, filepath.Join(t.TempDir(), "stores"))
	if err != nil {
		t.Fatal(err)
	}
	cfg.PayloadBytes, cfg.PayloadChunkBytes = 16<<10, 2<<10
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := daemon.WriteConfig(path, cfg); err != nil {
		t.Fatal(err)
	}
	for id := range cfg.Nodes {
		d, err := daemon.New(cfg, id)
		if err != nil {
			t.Fatalf("start P%d: %v", id, err)
		}
		defer d.Stop()
	}

	mcpctl := func(args ...string) (string, error) {
		return runCaptured(t, append([]string{"-config", path}, args...)...)
	}
	if out, err := mcpctl("-timeout", "15s", "wait"); err != nil || !strings.Contains(out, "cluster ready: 3 nodes") {
		t.Fatalf("wait: %v\n%s", err, out)
	}
	// P1 depends on P0 once it has received from it; only then does a
	// checkpoint at P1 make P0 a participant.
	if out, err := mcpctl("send", "-from", "0", "-to", "1", "-count", "3"); err != nil || !strings.Contains(out, "queued 3 message(s) P0 -> P1") {
		t.Fatalf("send: %v\n%s", err, out)
	}
	// The per-peer lines come sorted by peer, each with the connection
	// counters: P0 booted first, so it holds one outbound connection per
	// peer and reopened each outbox once, at the later starter's hello.
	delivered := regexp.MustCompile(`P0: .*\n  store .*\n` +
		`  ->P1 data=3 .* envelopes=\d+ connects=1 reopened=1 backlog=0\n` +
		`  ->P2 data=0 .* envelopes=\d+ connects=1 reopened=1 backlog=0\n` +
		`P1: .*\n  store .*\n  ->P0 .*\n  ->P2 .*\n` +
		`P2: .*\n  store .*\n  ->P0 .*\n  ->P1 .*\n$`)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		out, err := mcpctl("metrics")
		if err != nil {
			t.Fatalf("metrics: %v\n%s", err, out)
		}
		if delivered.MatchString(out) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("P1 never acknowledged P0's messages:\n%s", out)
		}
	}

	steps := []struct {
		args []string
		want []string // regexps, each must match the output
	}{
		{[]string{"checkpoint", "-at", "1"}, []string{`instance at P1 committed`}},
		{[]string{"status"}, []string{`P0 \S+ +up algo=mutable ready=true`, `P1 \S+ +up .* commits=1 aborts=0`}},
		{[]string{"line"}, []string{`P0: csn=1 `, `P1: csn=1 `, `live recovery line consistent`}},
		// A participant appends a tentative and a commit record on top of
		// the snapshot that starts its log, and fsyncs at least the commit.
		{[]string{"metrics"}, []string{
			`P0: commits=0 aborts=0 loop_handoffs=\d+\n  store appends=3 bytes=[1-9]\d* syncs=[1-9]\d* compactions=0 replayed=0 truncated=0\n`,
			`P1: commits=1 aborts=0 loop_handoffs=\d+\n  store appends=3 `,
			`->P1 data=[1-9]\d* retx=\d+ acks=\d+ dups=\d+ buffered=\d+ batches=\d+ writer_batches=\d+ `,
		}},
		{[]string{"store"}, []string{
			`P0: perm=1 tent=0 chunks=8 live=8 new=16KiB logical=16KiB ratio=1\.0\d\d dedup=0 \(self=0 cross=0\) gc=0 \(verified\)`,
			`P1: perm=1 tent=0 `,
		}},
		{[]string{"checkpoint", "-at", "7"}, nil},
		{[]string{"frobnicate"}, nil},
	}
	for _, st := range steps {
		out, err := mcpctl(st.args...)
		if st.want == nil {
			if err == nil {
				t.Fatalf("mcpctl %v succeeded, want an error", st.args)
			}
			continue
		}
		if err != nil {
			t.Fatalf("mcpctl %v: %v\n%s", st.args, err, out)
		}
		if st.args[0] == "checkpoint" {
			// The verdict comes back before the commit frames reach the
			// participants, which the next steps read.
			if err := daemon.WaitQuiescent(cfg, 10*time.Second); err != nil {
				t.Fatal(err)
			}
		}
		for _, want := range st.want {
			if !regexp.MustCompile(want).MatchString(out) {
				t.Fatalf("mcpctl %v printed\n%s\nwant a match for %q", st.args, out, want)
			}
		}
	}
}
