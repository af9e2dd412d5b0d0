package explore

// The committed counterexample corpus: every testdata/*.schedule file is
// a shrunken schedule that makes a specific mutant violate a safety
// invariant. The regression test replays each against the correct engine
// (must pass) and, under the file's own mutant, against that mutant (must
// fail), byte-deterministically both times, so any future change that
// silently re-opens or masks one of these interleavings is caught.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"mutablecp/internal/wire"
)

func TestCorpusRegression(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.schedule"))
	if err != nil {
		t.Fatal(err)
	}
	covered := make(map[string]bool)
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rec, _, err := wire.DecodeScheduleRecord(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		covered[rec.Mutant] = true
		t.Run(filepath.Base(path), func(t *testing.T) {
			want := mutant() != ""
			if want && mutant() != rec.Mutant {
				t.Skipf("recorded against mutant %s", rec.Mutant)
			}
			n := rec.N
			if n == 0 {
				n = corpusN // a version-1 record predates N
			}
			s, err := ScenarioByName(rec.Name, n)
			if err != nil {
				t.Fatal(err)
			}
			first, err := s.Replay(rec.Choices)
			if err != nil {
				t.Fatal(err)
			}
			if (first.Violation != nil) != want {
				t.Fatalf("under mutant %q the corpus schedule violates: %v, want %v", mutant(), first.Violation, want)
			}
			second, err := s.Replay(rec.Choices)
			if err != nil {
				t.Fatal(err)
			}
			if first.Fingerprint != second.Fingerprint {
				t.Fatalf("corpus replay not byte-deterministic: %x vs %x", first.Fingerprint, second.Fingerprint)
			}
		})
	}
	// Every mutant this test kills has a schedule of its own.
	for _, m := range killers(loadMutants(t), "TestCorpusRegression") {
		if !covered[m] {
			t.Errorf("no corpus schedule covers mutant %s", m)
		}
	}
}
