// Command mcpctl drives a running mcpd cluster over its control RPC:
// checkpoint initiation, recovery-line queries and audits, traffic
// injection, cluster-wide recovery, metrics, and graceful shutdown.
//
// Usage:
//
//	mcpctl -config cluster.json wait               # readiness barrier
//	mcpctl -config cluster.json status
//	mcpctl -config cluster.json checkpoint -at 0   # initiate at node 0
//	mcpctl -config cluster.json send -from 0 -to 1 -count 10
//	mcpctl -config cluster.json line               # audit live recovery line
//	mcpctl -config cluster.json audit              # audit the on-disk stores
//	mcpctl -config cluster.json metrics
//	mcpctl -config cluster.json store              # payload chunk-store stats + audit
//	mcpctl -config cluster.json recover            # roll every node back
//	mcpctl -config cluster.json shutdown
//
// A checkpoint's verdict returns before its commit frames reach the
// participants, so a line read right after it can be transiently
// inconsistent; run line, like recover, when the cluster is quiescent.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"mutablecp/internal/daemon"
	"mutablecp/internal/protocol"
	"mutablecp/internal/recovery"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mcpctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mcpctl", flag.ContinueOnError)
	config := fs.String("config", "", "cluster config file (JSON)")
	timeout := fs.Duration("timeout", 15*time.Second, "bound for wait and checkpoint operations")
	at := fs.Int("at", 0, "checkpoint: initiator node id")
	from := fs.Int("from", 0, "send: source node id")
	to := fs.Int("to", 1, "send: destination node id")
	count := fs.Int("count", 1, "send: how many messages")
	payload := fs.String("payload", "ping", "send: message payload")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("a subcommand is expected")
	}
	// flag stops at the first positional, so "mcpctl send -from 0 -to 1"
	// leaves the per-subcommand flags unparsed; pick them up now.
	op := fs.Arg(0)
	if err := fs.Parse(fs.Args()[1:]); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments after %q: %v", op, fs.Args())
	}
	if *config == "" {
		return fmt.Errorf("-config is required")
	}
	cfg, err := daemon.LoadConfig(*config)
	if err != nil {
		return err
	}

	switch op {
	case "wait":
		if err := daemon.WaitClusterReady(cfg, *timeout); err != nil {
			return err
		}
		fmt.Printf("cluster ready: %d nodes\n", cfg.N())
	case "status":
		for _, nc := range cfg.Nodes {
			cl, err := daemon.Dial(nc.CtlAddr)
			if err != nil {
				fmt.Printf("P%d %-21s DOWN (%v)\n", nc.ID, nc.CtlAddr, err)
				continue
			}
			st, serr := cl.Status()
			cl.Close() //nolint:errcheck
			if serr != nil {
				fmt.Printf("P%d %-21s ERROR (%v)\n", nc.ID, nc.CtlAddr, serr)
				continue
			}
			fmt.Printf("P%d %-21s up algo=%s ready=%v in_progress=%v commits=%d aborts=%d\n",
				nc.ID, nc.CtlAddr, st.Algorithm, st.Ready, st.InProgress, st.Commits, st.Aborts)
		}
	case "checkpoint":
		nc, ok := cfg.Node(*at)
		if !ok {
			return fmt.Errorf("no node %d in config", *at)
		}
		cl, err := daemon.Dial(nc.CtlAddr)
		if err != nil {
			return err
		}
		defer cl.Close() //nolint:errcheck
		committed, err := cl.Checkpoint(*timeout)
		if err != nil {
			return err
		}
		if !committed {
			return fmt.Errorf("instance at P%d aborted", *at)
		}
		fmt.Printf("instance at P%d committed\n", *at)
	case "send":
		nc, ok := cfg.Node(*from)
		if !ok {
			return fmt.Errorf("no node %d in config", *from)
		}
		cl, err := daemon.Dial(nc.CtlAddr)
		if err != nil {
			return err
		}
		defer cl.Close() //nolint:errcheck
		for i := 0; i < *count; i++ {
			if err := cl.Send(*to, []byte(*payload)); err != nil {
				return err
			}
		}
		fmt.Printf("queued %d message(s) P%d -> P%d\n", *count, *from, *to)
	case "line":
		states, err := daemon.AuditLine(cfg)
		printLine(states)
		if err != nil {
			return fmt.Errorf("live recovery line INCONSISTENT: %w", err)
		}
		fmt.Println("live recovery line consistent")
	case "audit":
		if cfg.StoreRoot == "" {
			return fmt.Errorf("audit needs store_root in the config")
		}
		line, err := recovery.OpenLine(cfg.StoreRoot, cfg.N(), cfg.StoreOptions())
		if err != nil {
			return fmt.Errorf("on-disk audit FAILED: %w", err)
		}
		printLine(line.States())
		fmt.Println("on-disk recovery line consistent")
	case "metrics":
		for _, nc := range cfg.Nodes {
			cl, err := daemon.Dial(nc.CtlAddr)
			if err != nil {
				return err
			}
			m, merr := cl.Metrics()
			cl.Close() //nolint:errcheck
			if merr != nil {
				return merr
			}
			fmt.Printf("P%d: commits=%d aborts=%d loop_handoffs=%d\n", nc.ID, m.Commits, m.Aborts, m.LoopHandoffs)
			fmt.Printf("  store appends=%d bytes=%d syncs=%d compactions=%d replayed=%d truncated=%d\n",
				m.Store.Appends, m.Store.AppendedBytes, m.Store.Syncs, m.Store.Compactions,
				m.Store.ReplayedRecords, m.Store.TruncatedBytes)
			// Sorted, so two calls can be compared line by line. connects
			// and reopened tell a stale link from a running cluster: after
			// one peer restart each survivor shows one more of both.
			peers := make([]int, 0, len(m.Sessions))
			for peer := range m.Sessions {
				peers = append(peers, peer)
			}
			sort.Ints(peers)
			for _, peer := range peers {
				sm := m.Sessions[peer]
				fmt.Printf("  ->P%d data=%d retx=%d acks=%d dups=%d buffered=%d batches=%d writer_batches=%d envelopes=%d connects=%d reopened=%d backlog=%d\n",
					peer, sm.DataFrames, sm.Retransmissions, sm.AcksSent, sm.DupsSuppressed,
					sm.Buffered, sm.Batches, sm.WriterBatches, sm.Envelopes, sm.Connects, sm.Reopened, m.Backlog[peer])
			}
		}
	case "store":
		for _, nc := range cfg.Nodes {
			cl, err := daemon.Dial(nc.CtlAddr)
			if err != nil {
				return err
			}
			stats, ok, serr := cl.Store()
			cl.Close() //nolint:errcheck
			if serr != nil {
				return fmt.Errorf("store audit P%d: %w", nc.ID, serr)
			}
			if !ok {
				fmt.Printf("P%d: no payload store (payload_bytes=0)\n", nc.ID)
				continue
			}
			ratio := 0.0
			if stats.LogicalBytes > 0 {
				ratio = float64(stats.NewBytes) / float64(stats.LogicalBytes)
			}
			fmt.Printf("P%d: perm=%d tent=%d chunks=%d live=%d new=%dKiB logical=%dKiB ratio=%.3f dedup=%d (self=%d cross=%d) gc=%d (verified)\n",
				nc.ID, stats.Permanents, stats.Tentatives, stats.Chunks, stats.LiveChunks,
				stats.NewBytes>>10, stats.LogicalBytes>>10, ratio,
				stats.DedupChunks, stats.SelfDedupChunks, stats.CrossDedupChunks,
				stats.Compactions)
		}
	case "recover":
		if err := daemon.RollbackCluster(cfg); err != nil {
			return err
		}
		states, err := daemon.AuditLine(cfg)
		if err != nil {
			printLine(states)
			return fmt.Errorf("post-recovery line INCONSISTENT: %w", err)
		}
		fmt.Printf("rolled %d nodes back to the newest permanent line (consistent)\n", cfg.N())
	case "shutdown":
		if err := daemon.ShutdownCluster(cfg); err != nil {
			return err
		}
		fmt.Printf("shutdown requested on %d nodes\n", cfg.N())
	default:
		return fmt.Errorf("unknown subcommand %q", op)
	}
	return nil
}

func printLine(states map[protocol.ProcessID]protocol.State) {
	for id := 0; id < len(states); id++ {
		st, ok := states[protocol.ProcessID(id)]
		if !ok {
			continue
		}
		fmt.Printf("P%d: csn=%d sent=%v recv=%v\n", id, st.CSN, st.SentTo, st.RecvFrom)
	}
}
