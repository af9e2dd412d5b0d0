package harness

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"mutablecp/internal/algorithms"
)

var update = flag.Bool("update", false, "rewrite golden files from the current engine")

// goldenGrid is the seed-for-seed equivalence matrix: enough workload
// shapes, process counts (including N > 64 to cross a bitset word
// boundary), and seeds that any behavioural or formatting drift in the
// mutable engine changes at least one fingerprint, plus one case for each
// other engine.
type goldenCase struct {
	name string
	cfg  Config
}

func goldenGrid() []goldenCase {
	short := 6 * 900 * time.Second
	var grid []goldenCase
	for _, n := range []int{4, 16} {
		for seed := uint64(1); seed <= 3; seed++ {
			grid = append(grid, goldenCase{
				name: caseName("p2p", n, seed),
				cfg: Config{Algorithm: AlgoMutable, N: n, Seed: seed,
					Workload: WorkloadP2P, Rate: 0.05, Horizon: short},
			})
		}
	}
	// Multi-word dependency vectors (N > 64).
	grid = append(grid, goldenCase{
		name: caseName("p2p", 96, 1),
		cfg: Config{Algorithm: AlgoMutable, N: 96, Seed: 1,
			Workload: WorkloadP2P, Rate: 0.05, Horizon: 4 * 900 * time.Second},
	})
	for seed := uint64(1); seed <= 2; seed++ {
		grid = append(grid, goldenCase{
			name: caseName("group", 16, seed),
			cfg: Config{Algorithm: AlgoMutable, N: 16, Seed: seed,
				Workload: WorkloadGroup, Rate: 0.05, Horizon: short},
		})
		grid = append(grid, goldenCase{
			name: caseName("client-server", 24, seed),
			cfg: Config{Algorithm: AlgoMutable, N: 24, Seed: seed,
				Workload: WorkloadClientServer, Rate: 0.05, Horizon: short},
		})
	}
	// Targeted commit dissemination exercises the notify-set paths.
	grid = append(grid, goldenCase{
		name: "targeted/p2p-n16-seed1",
		cfg: Config{Algorithm: AlgoMutableTargeted, N: 16, Seed: 1,
			Workload: WorkloadP2P, Rate: 0.05, Horizon: short},
	})
	// Doze-mode wakeups reorder deliveries relative to the active case.
	grid = append(grid, goldenCase{
		name: "doze/p2p-n16-seed1",
		cfg: Config{Algorithm: AlgoMutable, N: 16, Seed: 1,
			Workload: WorkloadP2P, Rate: 0.05, Horizon: short, DozeCount: 4},
	})
	// One case for every other registered engine: each draws its message
	// structs from the simulator's free list, like the mutable engine.
	for _, algo := range algorithms.Names() {
		if algo == AlgoMutable || algo == AlgoMutableTargeted {
			continue
		}
		grid = append(grid, goldenCase{
			name: algo + "/p2p-n16-seed1",
			cfg: Config{Algorithm: algo, N: 16, Seed: 1,
				Workload: WorkloadP2P, Rate: 0.05, Horizon: short},
		})
	}
	return grid
}

// shortGrid keeps the first four mutable cases and the first case of
// every other engine, so a -short run still checks each algorithm.
func shortGrid(grid []goldenCase) []goldenCase {
	var out []goldenCase
	seen := make(map[string]bool)
	for i, gc := range grid {
		if i < 4 || (gc.cfg.Algorithm != AlgoMutable && !seen[gc.cfg.Algorithm]) {
			out = append(out, gc)
			seen[gc.cfg.Algorithm] = true
		}
	}
	return out
}

func caseName(wl string, n int, seed uint64) string {
	return fmt.Sprintf("%s-n%d-seed%d", wl, n, seed)
}

const goldenPath = "testdata/engine_fingerprints.json"

// TestEngineFingerprintGolden locks each engine's execution, message
// contents, and trace formatting seed-for-seed: the mutable engine's
// entries were captured from the pre-bitset []bool engine, so any
// representation change that is not byte-identical fails here.
func TestEngineFingerprintGolden(t *testing.T) {
	grid := goldenGrid()
	if testing.Short() {
		grid = shortGrid(grid)
	}
	got := make(map[string]string, len(grid))
	for _, gc := range grid {
		fp, err := TraceFingerprint(gc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		got[gc.name] = fp
	}
	checkGolden(t, goldenPath, got, "engine execution diverged from the recorded []bool baseline")
}

// checkGolden compares got against the golden map at path, or rewrites
// the file under -update. Only the keys in got are compared, so a -short
// run checks a prefix of the grid against the full file.
func checkGolden(t *testing.T, path string, got map[string]string, diverged string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fingerprints to %s", len(got), path)
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to capture): %v", err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden fingerprint recorded (run with -update)", name)
			continue
		}
		if got[name] != w {
			t.Errorf("%s: fingerprint %s, golden %s — %s", name, got[name], w, diverged)
		}
	}
}

// TestTraceFingerprintDeterministic guards the oracle itself: the same
// configuration must digest identically twice in one process.
func TestTraceFingerprintDeterministic(t *testing.T) {
	cfg := Config{Algorithm: AlgoMutable, N: 8, Seed: 7,
		Workload: WorkloadP2P, Rate: 0.05, Horizon: 3 * 900 * time.Second}
	a, err := TraceFingerprint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TraceFingerprint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same config diverged: %s vs %s", a, b)
	}
	c, err := TraceFingerprint(Config{Algorithm: AlgoMutable, N: 8, Seed: 8,
		Workload: WorkloadP2P, Rate: 0.05, Horizon: 3 * 900 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatalf("different seeds produced equal fingerprints %s", a)
	}
}
