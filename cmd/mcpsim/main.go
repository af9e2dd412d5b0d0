// Command mcpsim runs a single simulated experiment with full control
// over algorithm, workload, and parameters, and prints the per-initiation
// statistics. It is the general-purpose entry point; mcpcompare wraps
// the specific paper artifacts.
//
// Usage:
//
//	mcpsim -algo mutable -rate 0.05
//	mcpsim -algo koo-toueg -rate 0.01 -horizon 10h
//	mcpsim -workload group -ratio 10000 -rate 0.1
//	mcpsim -algo mutable -rate 0.05 -seeds 8 -parallel 0
//	mcpsim -algo mutable -rate 0.05 -store /tmp/mcp-store
//	mcpsim -chaos -seeds 5
//	mcpsim -chaos -chaos-drop 0.3 -chaos-partition 20s -chaos-crashes 2
//	mcpsim -chaos -store /tmp/mcp-store -chaos-mss-restart
//	mcpsim -recovery rollback -crash-at 2h -restart-after 30s -horizon 4h
//	mcpsim -recovery log -seeds 4
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mutablecp/internal/algorithms"
	"mutablecp/internal/chunkstore"
	"mutablecp/internal/harness"
	"mutablecp/internal/profiling"
	"mutablecp/internal/simrt"
	"mutablecp/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mcpsim:", err)
		os.Exit(1)
	}
}

// validate rejects bad values and conflicting flag combinations before
// any experiment starts, so a long sweep never dies halfway through (or
// silently ignores a flag the user thought was in effect).
func validate(set map[string]bool, algo string, n int, rate, ratio float64,
	horizon time.Duration, seedCount, parallel int, chaos bool,
	chaosDrop, chaosDup float64, chaosCrashes int, store string, mssRestart bool,
	wl string, servers int, scale string,
	recoveryMode string, crashAt, restartAfter time.Duration) error {

	switch wl {
	case "p2p", "group", "client-server":
	default:
		return fmt.Errorf("unknown workload %q (want p2p, group, or client-server)", wl)
	}
	if set["servers"] && wl != "client-server" {
		return fmt.Errorf("-servers only applies to -workload client-server")
	}
	if servers < 0 {
		return fmt.Errorf("-servers must be >= 0 (0 picks n/8)")
	}
	if scale != "" {
		if chaos {
			return fmt.Errorf("-scale does not apply to -chaos (the gauntlet fixes its own experiment shape)")
		}
		if set["n"] {
			return fmt.Errorf("-n does not apply with -scale (the ladder sets the process count per rung)")
		}
		ladder, err := parseScale(scale)
		if err != nil {
			return err
		}
		for _, rung := range ladder {
			if servers >= rung {
				return fmt.Errorf("-servers %d must be below every -scale rung (smallest is %d)", servers, rung)
			}
		}
	}
	if scale == "" && servers >= n {
		return fmt.Errorf("-servers must be < -n")
	}

	if _, err := algorithms.New(algo); err != nil {
		return fmt.Errorf("unknown -algo %q (want %s)", algo, strings.Join(algorithms.Names(), ", "))
	}
	if n < 2 {
		return fmt.Errorf("-n must be >= 2 (checkpointing needs at least two processes)")
	}
	if rate <= 0 {
		return fmt.Errorf("-rate must be > 0")
	}
	if ratio < 1 {
		return fmt.Errorf("-ratio must be >= 1 (intra-group rate relative to inter-group)")
	}
	if horizon <= 0 {
		return fmt.Errorf("-horizon must be positive")
	}
	if seedCount < 1 {
		return fmt.Errorf("-seeds must be >= 1")
	}
	if parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0 (0 = all CPUs)")
	}

	if chaos {
		// The chaos gauntlet fixes its own algorithm and workload; reject
		// flags it would silently ignore.
		for _, f := range []string{"algo", "workload", "ratio", "horizon", "rate", "n"} {
			if set[f] {
				return fmt.Errorf("-%s does not apply to -chaos (the gauntlet fixes its own experiment shape)", f)
			}
		}
	} else {
		for _, f := range []string{"chaos-drop", "chaos-dup", "chaos-jitter",
			"chaos-partition", "chaos-crashes", "chaos-mss-restart"} {
			if set[f] {
				return fmt.Errorf("-%s requires -chaos", f)
			}
		}
	}
	for _, f := range []string{"chaos-dup", "chaos-jitter", "chaos-partition", "chaos-crashes"} {
		if set[f] && !set["chaos-drop"] {
			return fmt.Errorf("-%s only applies with -chaos-drop (the default grid sets its own fault mix)", f)
		}
	}
	if set["chaos-drop"] && (chaosDrop < 0 || chaosDrop > 1) {
		return fmt.Errorf("-chaos-drop must be a probability in [0, 1]")
	}
	if chaosDup < 0 || chaosDup > 1 {
		return fmt.Errorf("-chaos-dup must be a probability in [0, 1]")
	}
	if chaosCrashes < 0 {
		return fmt.Errorf("-chaos-crashes must be >= 0")
	}
	if mssRestart && store == "" {
		return fmt.Errorf("-chaos-mss-restart requires -store (in-memory stores cannot survive a storage restart)")
	}

	if recoveryMode != "" {
		switch recoveryMode {
		case "rollback", "log":
		default:
			return fmt.Errorf("unknown -recovery %q (want rollback or log)", recoveryMode)
		}
		if chaos {
			return fmt.Errorf("-recovery does not apply to -chaos (the gauntlet seeds its own crash-and-recover point)")
		}
		if scale != "" {
			return fmt.Errorf("-scale does not apply to -recovery (one cluster, one seeded crash)")
		}
		// The recovery experiment fixes a point-to-point workload.
		for _, f := range []string{"workload", "ratio", "servers", "active"} {
			if set[f] {
				return fmt.Errorf("-%s does not apply to -recovery", f)
			}
		}
		if recoveryMode == "log" && algo != harness.AlgoLogBased {
			return fmt.Errorf("-recovery log replays sender logs: pair it with -algo %s (or leave -algo unset)", harness.AlgoLogBased)
		}
		if recoveryMode == "rollback" && algo == harness.AlgoLogBased {
			return fmt.Errorf("-algo %s recovers by replaying logs, not by rolling back a coordinated line: use -recovery log", harness.AlgoLogBased)
		}
		if crashAt < 0 {
			return fmt.Errorf("-crash-at must be >= 0 (0 = horizon/2)")
		}
		if restartAfter <= 0 {
			return fmt.Errorf("-restart-after must be positive")
		}
	} else {
		for _, f := range []string{"crash-at", "restart-after"} {
			if set[f] {
				return fmt.Errorf("-%s requires -recovery", f)
			}
		}
	}
	return nil
}

// parseScale parses the -scale ladder ("8,64,512,4096") into ascending
// process counts.
func parseScale(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	ladder := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("-scale wants a comma-separated list of process counts, got %q", p)
		}
		if n < 2 {
			return nil, fmt.Errorf("-scale rung %d must be >= 2", n)
		}
		ladder = append(ladder, n)
	}
	for i := 1; i < len(ladder); i++ {
		if ladder[i] <= ladder[i-1] {
			return nil, fmt.Errorf("-scale rungs must be strictly increasing")
		}
	}
	return ladder, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("mcpsim", flag.ContinueOnError)
	algo := fs.String("algo", harness.AlgoMutable,
		"algorithm: "+strings.Join(algorithms.Names(), ", "))
	n := fs.Int("n", 16, "number of processes")
	rate := fs.Float64("rate", 0.05, "per-process message sending rate (msgs/s)")
	wl := fs.String("workload", "p2p", "workload: p2p, group, or client-server")
	servers := fs.Int("servers", 0,
		"client-server workload: number of server processes (0 = n/8, minimum 2)")
	scale := fs.String("scale", "",
		"run a large-N ladder instead of one experiment: comma-separated process counts, e.g. 8,64,512,4096")
	active := fs.Int("active", 0,
		"p2p workload: only the first N processes generate load and schedule checkpoints (0 = all); the scale ladder's min-process regime")
	prof := profiling.AddFlags(fs)
	ratio := fs.Float64("ratio", 1000, "group workload intra/inter rate ratio")
	horizon := fs.Duration("horizon", 10*time.Hour, "simulated time to run")
	seed := fs.Uint64("seed", 1, "random seed (first seed when -seeds > 1)")
	seedCount := fs.Int("seeds", 1, "number of consecutive seeds to run and merge")
	parallel := fs.Int("parallel", 0,
		"worker pool size for independent per-seed runs; 0 = all CPUs, 1 = sequential")
	chaos := fs.Bool("chaos", false,
		"run the chaos gauntlet (fault-injected grid) instead of a single experiment")
	chaosDrop := fs.Float64("chaos-drop", -1,
		"with -chaos: run one custom point at this drop rate instead of the default grid")
	chaosDup := fs.Float64("chaos-dup", 0.05, "with -chaos-drop: duplication probability")
	chaosJitter := fs.Duration("chaos-jitter", 5*time.Millisecond, "with -chaos-drop: max delivery jitter")
	chaosPartition := fs.Duration("chaos-partition", 10*time.Second, "with -chaos-drop: partition window length")
	chaosCrashes := fs.Int("chaos-crashes", 1, "with -chaos-drop: fail-stop crashes at mid-run")
	store := fs.String("store", "",
		"back stable stores with the durable on-disk log under this directory and audit the on-disk image after the run")
	mssRestart := fs.Bool("chaos-mss-restart", false,
		"with -chaos: crash and restart every support station's storage at mid-run (requires -store)")
	payloadBytes := fs.Int("payload-bytes", 0,
		"attach the checkpoint payload plane: synthetic process-image size in bytes (0 = control plane only)")
	payloadChunk := fs.Int("payload-chunk", 0,
		"with -payload-bytes: content-addressed chunk size in bytes (0 = 4096)")
	payloadProfile := fs.String("payload-profile", "",
		"with -payload-bytes: image mutation profile: uniform, skewed, or append")
	payloadMode := fs.String("payload-mode", "",
		"with -payload-bytes: storage mode: incremental, delta, or full")
	recoveryMode := fs.String("recovery", "",
		"run a crash-and-recover experiment: rollback (coordinated line) or log (sender-based message logging)")
	crashAt := fs.Duration("crash-at", 0,
		"with -recovery: instant of the seeded crash (0 = horizon/2)")
	restartAfter := fs.Duration("restart-after", 30*time.Second,
		"with -recovery: victim's down window before the executor recovers it")
	if err := fs.Parse(args); err != nil {
		return err
	}
	explicit := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if *recoveryMode == "log" && !explicit["algo"] {
		// Log-mode recovery only makes sense for the log-based family;
		// default it rather than demand a redundant -algo.
		*algo = harness.AlgoLogBased
	}
	if err := validate(explicit, *algo, *n, *rate, *ratio, *horizon, *seedCount,
		*parallel, *chaos, *chaosDrop, *chaosDup, *chaosCrashes, *store, *mssRestart,
		*wl, *servers, *scale,
		*recoveryMode, *crashAt, *restartAfter); err != nil {
		return err
	}
	if *payloadBytes <= 0 {
		for _, f := range []string{"payload-chunk", "payload-profile", "payload-mode"} {
			if explicit[f] {
				return fmt.Errorf("-%s requires -payload-bytes", f)
			}
		}
		if explicit["payload-bytes"] && *payloadBytes < 0 {
			return fmt.Errorf("-payload-bytes must be >= 0")
		}
	} else if *payloadChunk < 0 {
		return fmt.Errorf("-payload-chunk must be >= 0")
	}
	imgProfile, err := workload.ParseImageProfile(*payloadProfile)
	if err != nil {
		return err
	}
	chunkMode, err := chunkstore.ParseMode(*payloadMode)
	if err != nil {
		return err
	}
	stopProfiles, err := prof.Start()
	if err != nil {
		return err
	}
	profileErr := func(runErr error) error {
		if err := stopProfiles(); err != nil && runErr == nil {
			return err
		}
		return runErr
	}
	seedList := make([]uint64, *seedCount)
	for i := range seedList {
		seedList[i] = *seed + uint64(i)
	}
	cfg := harness.Config{
		Algorithm:       *algo,
		N:               *n,
		Seed:            *seed,
		Rate:            *rate,
		GroupRatio:      *ratio,
		Horizon:         *horizon,
		SkipConsistency: *algo == harness.AlgoNaiveNoCSN,
		StoreDir:        *store,
		Active:          *active,
	}
	// withPayload attaches the payload plane with its chunk store under
	// dir: next to the stable stores with -store, otherwise on the
	// in-memory error-injecting filesystem.
	withPayload := func(c *harness.Config, dir string) {
		if *payloadBytes > 0 {
			c.PayloadBytes, c.PayloadChunkBytes = *payloadBytes, *payloadChunk
			c.PayloadProfile, c.PayloadMode, c.PayloadDir = imgProfile, chunkMode, dir
		}
	}
	withPayload(&cfg, *store)
	switch *wl {
	case "p2p":
		cfg.Workload = harness.WorkloadP2P
	case "group":
		cfg.Workload = harness.WorkloadGroup
	case "client-server":
		cfg.Workload = harness.WorkloadClientServer
		cfg.Servers = *servers
	}

	if *recoveryMode != "" {
		// A 2 min checkpoint interval, shorter than the paper's 900 s, so
		// a bounded horizon sees several lines; P0 crashes mid-run unless
		// -crash-at pins the instant.
		cfg.Interval = 2 * time.Minute
		cfg.Crashes = harness.SpacedCrashes(cfg, 1, *restartAfter)
		if *crashAt > 0 {
			cfg.Crashes[0].At = *crashAt
		}
		return profileErr(runRecovery(cfg, seedList, *recoveryMode, *parallel))
	}
	if *chaos {
		points := harness.DefaultChaosPoints()
		if *chaosDrop >= 0 {
			pt := points[0] // the gauntlet's shape, with a custom fault mix
			pt.Label = fmt.Sprintf("drop%g", *chaosDrop*100)
			pt.Config.Faults = &harness.Faults{
				Drop: *chaosDrop, Dup: *chaosDup, JitterMax: *chaosJitter, PartitionWindow: *chaosPartition,
			}
			for i := 0; i < *chaosCrashes; i++ {
				pt.Config.Crashes = append(pt.Config.Crashes,
					simrt.CrashPlan{Proc: pt.Config.N - 1 - i, At: pt.Config.Horizon / 2})
			}
			points = []harness.ChaosPoint{pt}
		}
		for i := range points {
			c := &points[i].Config
			if *store != "" {
				// One subdirectory per operating point; Run adds the
				// per-seed level below it.
				c.StoreDir = filepath.Join(*store, points[i].Label)
				c.Faults.MSSRestart = *mssRestart
			}
			withPayload(c, c.StoreDir)
		}
		rows, err := harness.Parallel(*parallel).ChaosGauntlet(points, seedList)
		if err != nil {
			return profileErr(err)
		}
		fmt.Print(harness.FormatChaos(rows))
		if *store != "" {
			// A failed store audit fails the gauntlet before this point.
			printStoreVerdict(nil, *mssRestart)
		}
		return profileErr(nil)
	}

	if *scale != "" {
		ladder, err := parseScale(*scale)
		if err != nil {
			return profileErr(err)
		}
		return profileErr(runScale(cfg, ladder, seedList, *parallel, *wl))
	}

	res, err := harness.Parallel(*parallel).RunSeeds(cfg, seedList)
	if err != nil {
		return profileErr(err)
	}
	fmt.Printf("algorithm            %s\n", *algo)
	fmt.Printf("workload             %s rate=%g seeds=%d\n", *wl, *rate, *seedCount)
	fmt.Printf("simulated time       %v (%d events, %d comp msgs)\n",
		*horizon, res.SimulatedEvents, res.CompMsgs)
	fmt.Printf("completed inits      %d\n", res.Initiations)
	fmt.Printf("tentative ckpts/init %s\n", res.Tentative.String())
	fmt.Printf("mutable ckpts/init   %s\n", res.Mutable.String())
	fmt.Printf("redundant/init       %s (%.2f%% of tentative)\n",
		res.Redundant.String(), 100*res.RedundantRatio)
	fmt.Printf("system msgs/init     %s\n", res.SysMsgs.String())
	fmt.Printf("checkpointing time   %s s\n", res.DurationSec.String())
	fmt.Printf("blocking time/init   %s s\n", res.BlockedSec.String())
	fmt.Printf("stable ckpts total   %d (%.1f per interval)\n",
		res.TotalStable, float64(res.TotalStable)/res.Intervals)
	if cfg.SkipConsistency {
		fmt.Printf("consistency          skipped (deliberately broken scheme)\n")
	} else if res.ConsistencyOK {
		fmt.Printf("consistency          OK (recovery line has no orphans)\n")
	} else {
		fmt.Printf("consistency          VIOLATED: %v\n", res.ConsistencyErr)
	}
	if *store != "" {
		printStoreVerdict(res.DiskLineErr, false)
	}
	if cfg.PayloadBytes > 0 {
		fmt.Printf("payload transfer     %dKiB logical -> %dKiB after dedup (ratio %.3f over %d saves, mode %v)\n",
			res.PayloadLogicalBytes>>10, res.PayloadNewBytes>>10,
			res.PayloadRatio, res.PayloadSaves, cfg.PayloadMode)
		fmt.Printf("payload dedup        %d chunks (%d self-process, %d cross-process), %d delta\n",
			res.PayloadStats.DedupChunks, res.PayloadStats.SelfDedupChunks,
			res.PayloadStats.CrossDedupChunks, res.PayloadStats.DeltaChunks)
		if res.PayloadVerifyOK {
			fmt.Printf("payload audit        OK (every manifest resolves to intact chunks)\n")
		} else {
			fmt.Printf("payload audit        FAILED: %v\n", res.PayloadVerifyErr)
		}
	}
	for _, e := range res.ClusterErrors {
		fmt.Printf("cluster error        %v\n", e)
	}
	if res.Err() != nil {
		return profileErr(fmt.Errorf("run finished with errors"))
	}
	return profileErr(nil)
}

// printStoreVerdict prints the durable-store audit line (the stores
// reopened from disk hold what the verified run ended with) that -store
// runs and -chaos -store gauntlets share.
func printStoreVerdict(err error, mssRestart bool) {
	if err != nil {
		fmt.Printf("durable store        FAILED: %v\n", err)
		return
	}
	fmt.Printf("durable store        OK (on-disk image matched the verified state at every point")
	if mssRestart {
		fmt.Printf("; survived mid-run MSS restart")
	}
	fmt.Printf(")\n")
}

// runRecovery executes the crash-and-recover experiment once per seed,
// the seeds fanned out over the worker pool, and prints one verdict row
// each: the crash, the executor's recovery, and the resumed run's
// consistency. Any seed with a failed verdict fails the whole invocation.
func runRecovery(cfg harness.Config, seeds []uint64, mode string, parallel int) error {
	results, err := harness.RunJobs(harness.Parallel(parallel).Workers(), len(seeds), func(i int) (*harness.Result, error) {
		c := cfg
		c.Seed = seeds[i]
		return harness.Run(c)
	})
	if err != nil {
		return err
	}
	crash := cfg.Crashes[0]
	fmt.Printf("recovery             %s (algo %s)\n", mode, cfg.Algorithm)
	fmt.Printf("crash                P%d at %v, restart after %v, horizon %v\n",
		crash.Proc, crash.At, crash.RestartAfter, cfg.Horizon)
	fmt.Printf("%-6s %-9s %-12s %-15s %-9s %-8s %-8s %-12s %s\n",
		"seed", "restarts", "recovery(s)", "peer-rollbacks", "replayed", "deduped", "logged", "new-commits", "consistency")
	var firstErr error
	for i, res := range results {
		verdict := "OK"
		if err := res.Err(); err != nil {
			verdict = err.Error()
			if firstErr == nil {
				firstErr = fmt.Errorf("seed %d: %w", seeds[i], err)
			}
		}
		fmt.Printf("%-6d %-9d %-12.1f %-15d %-9d %-8d %-8d %-12d %s\n",
			seeds[i], res.Restarts, res.RecoveryTime.Seconds(), res.PeerRollbacks,
			res.Replayed, res.Deduped, res.LoggedMsgs, res.NewCommits, verdict)
	}
	if cfg.StoreDir != "" && firstErr == nil {
		printStoreVerdict(nil, false)
	}
	return firstErr
}

// runScale runs the same experiment at every process count on the ladder
// and prints one table row per rung: wall-clock cost, simulated work, the
// per-initiation system-message overhead whose growth in N is exactly
// what the dependency-vector representation controls, and the peak live
// heap — the number that must stay sub-linear in N for the sparse
// representation claim to hold.
func runScale(cfg harness.Config, ladder []int, seedList []uint64, parallel int, wl string) error {
	fmt.Printf("scale ladder         algo=%s workload=%s rate=%g horizon=%v seeds=%d",
		cfg.Algorithm, wl, cfg.Rate, cfg.Horizon, len(seedList))
	if cfg.Active > 0 {
		fmt.Printf(" active=%d", cfg.Active)
	}
	fmt.Println()
	fmt.Printf("%9s %12s %14s %14s %8s %16s %12s\n",
		"n", "wall", "simevents", "comp msgs", "inits", "sys msgs/init", "peak heap")
	for _, n := range ladder {
		rung := cfg
		rung.N = n
		sampler := startHeapSampler()
		start := time.Now()
		res, err := harness.Parallel(parallel).RunSeeds(rung, seedList)
		wall := time.Since(start).Round(time.Millisecond)
		peak := sampler.stop()
		if err != nil {
			return fmt.Errorf("n=%d: %w", n, err)
		}
		fmt.Printf("%9d %12v %14d %14d %8d %16.1f %12s\n",
			n, wall, res.SimulatedEvents, res.CompMsgs, res.Initiations,
			res.SysMsgs.Mean(), fmtBytes(peak))
		for _, e := range res.ClusterErrors {
			return fmt.Errorf("n=%d: cluster error: %w", n, e)
		}
		if !rung.SkipConsistency && !res.ConsistencyOK {
			return fmt.Errorf("n=%d: consistency violated: %w", n, res.ConsistencyErr)
		}
	}
	return nil
}

// heapSampler polls runtime.MemStats while a rung runs and keeps the
// highest live-heap reading. Each rung garbage-collects first so the
// previous rung's dead cluster does not count against this one.
type heapSampler struct {
	stopCh chan struct{}
	doneCh chan struct{}
	peak   uint64
}

func startHeapSampler() *heapSampler {
	runtime.GC()
	s := &heapSampler{stopCh: make(chan struct{}), doneCh: make(chan struct{})}
	go func() {
		defer close(s.doneCh)
		ticker := time.NewTicker(20 * time.Millisecond)
		defer ticker.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > s.peak {
				s.peak = ms.HeapAlloc
			}
			select {
			case <-s.stopCh:
				return
			case <-ticker.C:
			}
		}
	}()
	return s
}

// stop takes a final reading and returns the peak observed.
func (s *heapSampler) stop() uint64 {
	close(s.stopCh)
	<-s.doneCh
	return s.peak
}

// fmtBytes renders a byte count with a binary unit, one decimal place.
func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
