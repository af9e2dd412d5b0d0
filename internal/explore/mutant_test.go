package explore

// Seeded defects as data. Each testdata/mutants/<name>.mutant file names
// one source file (relative to the module root), an exact old → new text
// replacement in it, and the tests that must kill the result:
//
//	# comment
//	file internal/core/engine.go
//	kill ./internal/explore TestA TestB
//	-- old --
//	<text that must occur exactly once in the file>
//	-- new --
//	<its replacement>
//
// TestMutantsKilled builds every mutant with `go test -overlay`, so the
// file on disk never changes, and runs each kill line's tests with
// mutantEnv naming the mutant. Every listed test must pass, and a listed
// test passes under a mutant only by detecting it; without mutantEnv the
// same tests check the correct code. The shrunk counterexamples the
// tests save under counterexampleEnv are then replayed here, on the
// correct code, which must pass them: a counterexample isolates the
// defect, not the scenario. An old text that matches zero times or more
// than once fails the mutant, so an edit that moves a guarded line
// breaks the mutant visibly instead of silently testing nothing.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"mutablecp/internal/wire"
)

// mutantEnv names the mutant a test binary was built under. The guarded
// tests of every kill-line package read it by this spelling: explore,
// harness (recovery_test.go), recovery (executor_test.go) and
// cmd/mcpcheck (main_test.go). TestMutantsApplyOnce fails if a kill-line
// package's tests stop spelling it.
const mutantEnv = "MUTABLECP_MUTANT"

// counterexampleEnv names the directory detectShrinkReplay saves its
// shrunk counterexample in, for the runner to replay on correct code.
const counterexampleEnv = "MUTABLECP_COUNTEREXAMPLES"

// mutant returns the seeded defect this test binary was built under, or
// "" for the correct code.
func mutant() string { return os.Getenv(mutantEnv) }

type mutantSpec struct {
	name     string
	file     string
	old, new []byte
	kills    []mutantKill
}

// mutantKill is one kill line: a package and the tests in it that must
// detect the mutant.
type mutantKill struct {
	pkg   string
	tests []string
}

func parseMutant(name string, data []byte) (*mutantSpec, error) {
	m := &mutantSpec{name: name}
	head, rest, ok := bytes.Cut(data, []byte("-- old --\n"))
	if !ok {
		return nil, errors.New("no -- old -- section")
	}
	if m.old, m.new, ok = bytes.Cut(rest, []byte("-- new --\n")); !ok {
		return nil, errors.New("no -- new -- section")
	}
	sc := bufio.NewScanner(bytes.NewReader(head))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		switch {
		case len(f) == 0 || strings.HasPrefix(f[0], "#"):
		case f[0] == "file" && len(f) == 2 && filepath.IsLocal(f[1]):
			m.file = f[1]
		case f[0] == "kill" && len(f) >= 3:
			m.kills = append(m.kills, mutantKill{pkg: f[1], tests: f[2:]})
		default:
			return nil, fmt.Errorf("bad line %q", sc.Text())
		}
	}
	switch {
	case m.file == "":
		return nil, errors.New("no file line")
	case len(m.kills) == 0:
		return nil, errors.New("no kill line")
	case len(m.old) == 0 || bytes.Equal(m.old, m.new):
		return nil, errors.New("old text is empty or equal to new")
	}
	return m, nil
}

// apply returns src with the mutant's replacement made, or an error if
// the old text does not occur exactly once.
func (m *mutantSpec) apply(src []byte) ([]byte, error) {
	if k := bytes.Count(src, m.old); k != 1 {
		return nil, fmt.Errorf("mutant %s: old text occurs %d times in %s, want exactly once", m.name, k, m.file)
	}
	return bytes.Replace(src, m.old, m.new, 1), nil
}

// killers returns the mutants whose kill lists name test in package
// ./internal/explore.
func killers(mutants []*mutantSpec, test string) []string {
	var names []string
	for _, m := range mutants {
		for _, k := range m.kills {
			if k.pkg == "./internal/explore" && slices.Contains(k.tests, test) {
				names = append(names, m.name)
			}
		}
	}
	return names
}

func loadMutants(t *testing.T) []*mutantSpec {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "mutants", "*.mutant"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no mutants under testdata/mutants")
	}
	mutants := make([]*mutantSpec, 0, len(paths))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := parseMutant(strings.TrimSuffix(filepath.Base(path), ".mutant"), data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		mutants = append(mutants, m)
	}
	return mutants
}

// moduleRoot is two levels up from this package's directory.
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatal(err)
	}
	return root
}

// TestMutantsApplyOnce is the drift guard without the build: every
// mutant's old text occurs exactly once in today's file, and a text that
// occurs zero or two times is refused.
func TestMutantsApplyOnce(t *testing.T) {
	root := moduleRoot(t)
	for _, m := range loadMutants(t) {
		src, err := os.ReadFile(filepath.Join(root, m.file))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.apply(src); err != nil {
			t.Error(err)
		}
	}
	// Every kill-line package's guarded tests read mutantEnv, so a
	// rename cannot leave one checking the correct code under a mutant.
	checked := make(map[string]bool)
	for _, m := range loadMutants(t) {
		for _, k := range m.kills {
			if checked[k.pkg] {
				continue
			}
			checked[k.pkg] = true
			tests, err := filepath.Glob(filepath.Join(root, k.pkg, "*_test.go"))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.ContainsFunc(tests, func(path string) bool {
				src, err := os.ReadFile(path)
				return err == nil && bytes.Contains(src, []byte(`"`+mutantEnv+`"`))
			}) {
				t.Errorf("no test in %s reads %s", k.pkg, mutantEnv)
			}
		}
	}
	m := &mutantSpec{name: "probe", file: "x.go", old: []byte("a := 1\n"), new: []byte("a := 2\n")}
	for _, src := range []string{"b := 1\n", "a := 1\na := 1\n"} {
		if _, err := m.apply([]byte(src)); err == nil {
			t.Errorf("apply accepted %q", src)
		}
	}
	if _, err := parseMutant("bad", []byte("file x.go\n-- old --\na\n-- new --\nb\n")); err == nil {
		t.Error("mutant without a kill line parsed")
	}
}

// TestMutantsKilled builds each mutant as an overlay and requires every
// test on its kill lines to run and pass under it.
func TestMutantsKilled(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and tests every mutant")
	}
	if mutant() != "" {
		t.Skip("already under a mutant")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("the runner needs the go command: %v", err)
	}
	root := moduleRoot(t)
	start := time.Now()
	for _, m := range loadMutants(t) {
		t.Run(m.name, func(t *testing.T) {
			target := filepath.Join(root, m.file)
			src, err := os.ReadFile(target)
			if err != nil {
				t.Fatal(err)
			}
			patched, err := m.apply(src)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			file := filepath.Join(dir, filepath.Base(target))
			overlay, err := json.Marshal(map[string]map[string]string{"Replace": {target: file}})
			if err != nil {
				t.Fatal(err)
			}
			overlayPath := filepath.Join(dir, "overlay.json")
			if err := os.WriteFile(file, patched, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(overlayPath, overlay, 0o644); err != nil {
				t.Fatal(err)
			}
			cexDir := filepath.Join(dir, "counterexamples")
			if err := os.Mkdir(cexDir, 0o755); err != nil {
				t.Fatal(err)
			}
			for _, k := range m.kills {
				args := []string{"test", "-overlay=" + overlayPath, "-count=1", "-json",
					"-run", "^(" + strings.Join(k.tests, "|") + ")$", k.pkg}
				cmd := exec.Command(gobin, args...)
				cmd.Dir = root
				cmd.Env = append(os.Environ(), mutantEnv+"="+m.name, counterexampleEnv+"="+cexDir)
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				out, runErr := cmd.Output()
				verdicts, printed := testVerdicts(out)
				var bad []string
				for _, test := range k.tests {
					if v := verdicts[test]; v != "pass" {
						bad = append(bad, fmt.Sprintf("%s %q", test, v))
					}
				}
				if len(bad) > 0 {
					t.Errorf("%s under mutant %s: %s, want pass (go test: %v)\n%s%s",
						k.pkg, m.name, strings.Join(bad, ", "), runErr, stderr.Bytes(), printed)
				}
			}
			replayCounterexamples(t, cexDir)
		})
	}
	t.Logf("all mutants built and tested in %v", time.Since(start).Round(time.Millisecond))
}

// replayCounterexamples replays every schedule a mutant's tests saved
// in dir on the correct code: each must pass, byte-deterministically.
// There must be at least one. With -update each is also copied into the
// committed corpus.
func replayCounterexamples(t *testing.T, dir string) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.schedule"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("the mutant's tests saved no counterexample")
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rec, _, err := wire.DecodeScheduleRecord(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		s, err := ScenarioByName(rec.Name, rec.N)
		if err != nil {
			t.Fatal(err)
		}
		once, err := s.Replay(rec.Choices)
		if err != nil {
			t.Fatal(err)
		}
		twice, err := s.Replay(rec.Choices)
		if err != nil {
			t.Fatal(err)
		}
		if once.Violation != nil {
			t.Errorf("%s: the correct code violates the counterexample %v too: %v",
				filepath.Base(path), rec.Choices, once.Violation)
		}
		if once.Fingerprint != twice.Fingerprint {
			t.Errorf("%s: replay not deterministic: %x vs %x", filepath.Base(path), once.Fingerprint, twice.Fingerprint)
		}
		if *update {
			if err := os.WriteFile(filepath.Join("testdata", filepath.Base(path)), data, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote testdata/%s (choices %v)", filepath.Base(path), rec.Choices)
		}
	}
}

// testEvent is the part of a `go test -json` event the runner reads.
type testEvent struct {
	Action, Test, Output string
}

// testVerdicts maps each top-level test in a `go test -json` stream to
// its final action (pass, fail or skip), and returns what the run printed.
func testVerdicts(stream []byte) (map[string]string, string) {
	verdicts := make(map[string]string)
	var printed strings.Builder
	dec := json.NewDecoder(bytes.NewReader(stream))
	for {
		var ev testEvent
		if dec.Decode(&ev) != nil {
			return verdicts, printed.String()
		}
		printed.WriteString(ev.Output)
		switch ev.Action {
		case "pass", "fail", "skip":
			if ev.Test != "" && !strings.Contains(ev.Test, "/") {
				verdicts[ev.Test] = ev.Action
			}
		}
	}
}
