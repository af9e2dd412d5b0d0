package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

func TestRunMutable(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	if err := run([]string{"-algo", "mutable", "-rate", "0.05", "-horizon", "2h"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunGroupWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	if err := run([]string{"-workload", "group", "-rate", "0.05", "-horizon", "2h"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunChaosCustomPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	err := run([]string{"-chaos", "-chaos-drop", "0.1", "-seeds", "2"})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunRecoveryRollback drives the crash-and-recover experiment end to
// end through the CLI: a pinned crash, a coordinated rollback, and a
// clean resumed run across two seeds.
func TestRunRecoveryRollback(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	err := run([]string{"-recovery", "rollback", "-horizon", "40m",
		"-crash-at", "20m", "-restart-after", "30s", "-rate", "1", "-n", "8", "-seeds", "2"})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunRecoveryLog exercises the log-based path; -algo defaults to the
// log-based family when -recovery log is given without one.
func TestRunRecoveryLog(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	err := run([]string{"-recovery", "log", "-horizon", "40m",
		"-rate", "1", "-n", "8"})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunRecoveryDurable recovers against the durable on-disk stores:
// the rollback restores what the logs hold, and the final store audit
// must find the disk equal to the verified post-recovery state.
func TestRunRecoveryDurable(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	err := run([]string{"-recovery", "rollback", "-horizon", "40m", "-crash-at", "20m",
		"-rate", "1", "-n", "8", "-store", t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunRecoveryParallelRows: the per-seed verdict rows do not depend on
// the worker count.
func TestRunRecoveryParallelRows(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	args := []string{"-recovery", "rollback", "-horizon", "40m", "-crash-at", "20m",
		"-rate", "1", "-n", "8", "-seeds", "2"}
	seq := captureRun(t, append(args, "-parallel", "1"))
	par := captureRun(t, append(args, "-parallel", "2"))
	if seq != par {
		t.Fatalf("-parallel 2 printed\n%s\n-parallel 1 printed\n%s", par, seq)
	}
	if !strings.Contains(seq, "2      1 ") {
		t.Fatalf("no row for seed 2:\n%s", seq)
	}
}

// captureRun runs the command and returns what it printed to stdout.
func captureRun(t *testing.T, args []string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	runErr := run(args)
	os.Stdout = stdout
	w.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	return <-out
}

// TestRunPayload drives the payload plane through the CLI with the
// chunk store on disk under -store.
func TestRunPayload(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	err := run([]string{"-n", "8", "-payload-bytes", "65536", "-payload-profile", "skewed",
		"-horizon", "90m", "-seed", "7", "-store", t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnknownWorkloadRejected(t *testing.T) {
	if err := run([]string{"-workload", "mesh"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestUnknownAlgorithmRejected(t *testing.T) {
	if err := run([]string{"-algo", "nope", "-horizon", "1h"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TestFlagValidation pins the up-front combination checks: every bad
// value or conflicting pair is rejected with a clear error before any
// simulation starts.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"n too small", []string{"-n", "1"}, "-n must be >= 2"},
		{"zero rate", []string{"-rate", "0"}, "-rate must be > 0"},
		{"negative rate", []string{"-rate", "-0.1"}, "-rate must be > 0"},
		{"ratio below one", []string{"-ratio", "0.5"}, "-ratio must be >= 1"},
		{"zero horizon", []string{"-horizon", "0s"}, "-horizon must be positive"},
		{"zero seeds", []string{"-seeds", "0"}, "-seeds must be >= 1"},
		{"negative parallel", []string{"-parallel", "-1"}, "-parallel must be >= 0"},
		{"algo under chaos", []string{"-chaos", "-algo", "koo-toueg"}, "-algo does not apply to -chaos"},
		{"rate under chaos", []string{"-chaos", "-rate", "0.1"}, "-rate does not apply to -chaos"},
		{"chaos-drop without chaos", []string{"-chaos-drop", "0.1"}, "-chaos-drop requires -chaos"},
		{"chaos-crashes without chaos", []string{"-chaos-crashes", "2"}, "-chaos-crashes requires -chaos"},
		{"mss-restart without chaos", []string{"-chaos-mss-restart"}, "-chaos-mss-restart requires -chaos"},
		{"dup without drop", []string{"-chaos", "-chaos-dup", "0.1"}, "-chaos-dup only applies with -chaos-drop"},
		{"jitter without drop", []string{"-chaos", "-chaos-jitter", "1ms"}, "-chaos-jitter only applies with -chaos-drop"},
		{"drop above one", []string{"-chaos", "-chaos-drop", "1.5"}, "-chaos-drop must be a probability"},
		{"dup above one", []string{"-chaos", "-chaos-drop", "0.1", "-chaos-dup", "2"}, "-chaos-dup must be a probability"},
		{"negative crashes", []string{"-chaos", "-chaos-drop", "0.1", "-chaos-crashes", "-1"}, "-chaos-crashes must be >= 0"},
		{"mss-restart without store", []string{"-chaos", "-chaos-mss-restart"}, "requires -store"},
		{"unknown workload", []string{"-workload", "mesh"}, "unknown workload"},
		{"servers without client-server", []string{"-servers", "4"}, "-servers only applies"},
		{"negative servers", []string{"-workload", "client-server", "-servers", "-1"}, "-servers must be >= 0"},
		{"servers not below n", []string{"-workload", "client-server", "-servers", "16"}, "-servers must be < -n"},
		{"scale under chaos", []string{"-chaos", "-scale", "8,64"}, "-scale does not apply to -chaos"},
		{"scale with explicit n", []string{"-scale", "8,64", "-n", "32"}, "-n does not apply with -scale"},
		{"scale not a number", []string{"-scale", "8,big"}, "comma-separated list"},
		{"scale rung too small", []string{"-scale", "1,8"}, "must be >= 2"},
		{"scale not increasing", []string{"-scale", "64,8"}, "strictly increasing"},
		{"scale rung not above servers", []string{"-workload", "client-server", "-servers", "8", "-scale", "8,64"},
			"below every -scale rung"},
		{"bad cpuprofile path", []string{"-horizon", "1s", "-cpuprofile", "/nonexistent-dir/x.cpu"}, "-cpuprofile"},
		{"unknown recovery mode", []string{"-recovery", "rewind"}, "unknown -recovery"},
		{"recovery under chaos", []string{"-chaos", "-recovery", "rollback"}, "-recovery does not apply to -chaos"},
		{"recovery under scale", []string{"-recovery", "rollback", "-scale", "8,64"}, "-scale does not apply to -recovery"},
		{"workload under recovery", []string{"-recovery", "rollback", "-workload", "group"}, "-workload does not apply to -recovery"},
		{"log mode with rollback algo", []string{"-recovery", "log", "-algo", "mutable"}, "pair it with -algo log-based"},
		{"rollback mode with log algo", []string{"-recovery", "rollback", "-algo", "log-based"}, "use -recovery log"},
		{"crash-at without recovery", []string{"-crash-at", "2h"}, "-crash-at requires -recovery"},
		{"restart-after without recovery", []string{"-restart-after", "30s"}, "-restart-after requires -recovery"},
		{"negative crash-at", []string{"-recovery", "rollback", "-crash-at", "-1s"}, "-crash-at must be >= 0"},
		{"zero restart-after", []string{"-recovery", "rollback", "-restart-after", "0s"}, "-restart-after must be positive"},
		{"crash beyond horizon", []string{"-recovery", "rollback", "-horizon", "1h", "-crash-at", "59m"},
			"checkpoint interval before the horizon"},
		{"payload-chunk without payload-bytes", []string{"-payload-chunk", "8192"}, "-payload-chunk requires -payload-bytes"},
		{"negative payload-bytes", []string{"-payload-bytes", "-1"}, "-payload-bytes must be >= 0"},
		{"bad payload-mode", []string{"-payload-bytes", "4096", "-payload-mode", "delta"}, "flag provided but not defined: -payload-mode"},
		{"bad payload-profile", []string{"-payload-bytes", "4096", "-payload-profile", "hot"}, "unknown image profile"},
		{"negative payload-chunk", []string{"-payload-bytes", "4096", "-payload-chunk", "-5"}, "-payload-chunk must be >= 0"},
		{"payload-stripe is gone", []string{"-payload-bytes", "4096", "-payload-stripe", "3"}, "flag provided but not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", tc.args, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) = %q, want error containing %q", tc.args, err.Error(), tc.want)
			}
		})
	}
}
