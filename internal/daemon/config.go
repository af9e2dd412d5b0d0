// Package daemon runs one checkpointing process per OS process: the
// real-time driver of the protocol engines, beside the discrete-event
// runtime (internal/simrt) that drives them in virtual time. An mcpd
// daemon loads a shared cluster config, sends over livenet.Link TCP
// connections with the relnet ARQ sublayer on top for reliable FIFO
// delivery across real sockets, opens its own on-disk stable store, and
// exposes a framed control RPC for initiation, recovery-line queries,
// metrics, and graceful shutdown. The public mutablecp.LiveCluster runs
// the same daemons in one process.
package daemon

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"time"

	"mutablecp/internal/algorithms"
	"mutablecp/internal/chunkstore"
	"mutablecp/internal/protocol"
	"mutablecp/internal/stable"
	"mutablecp/internal/workload"
)

// Config describes a whole cluster; every daemon loads the same file and
// picks its own row out of Nodes by ID.
type Config struct {
	// Algorithm names the checkpointing engine: "mutable" or
	// "mutable-targeted" (internal/algorithms registry). Empty means
	// "mutable". Validate rejects the registry's other engines; see
	// daemonAlgorithms.
	Algorithm string `json:"algorithm"`
	// StoreRoot is the directory holding the per-process stable stores
	// (StoreRoot/p000, p001, ... unless a node overrides StoreDir).
	StoreRoot string `json:"store_root"`
	// RequestTimeoutMS arms the §3.6 give-up timer on every initiation:
	// an instance still in progress after this many milliseconds is
	// aborted at the initiator, so a crashed participant cannot wedge
	// the survivors. Zero means 5000.
	RequestTimeoutMS int `json:"request_timeout_ms,omitempty"`
	// NoSync disables fsync on commit (tests and benchmarks only).
	NoSync bool `json:"no_sync,omitempty"`
	// PayloadBytes, when positive, attaches the checkpoint payload plane:
	// each daemon carries a synthetic process image of this size, stored
	// into a content-addressed chunk store under StoreDir/chunks with a
	// lifecycle shadowing the control plane's tentative/permanent one.
	PayloadBytes int `json:"payload_bytes,omitempty"`
	// PayloadChunkBytes is the chunking granularity (default 4096).
	PayloadChunkBytes int `json:"payload_chunk_bytes,omitempty"`
	// PayloadProfile mutates the image between checkpoints: "uniform"
	// (default), "skewed", or "append".
	PayloadProfile string `json:"payload_profile,omitempty"`
	// PayloadMode names the payload encoding. The chunk store has one,
	// "incremental", which is also what empty means; the "delta" and
	// "full" modes were removed and are refused.
	PayloadMode string `json:"payload_mode,omitempty"`
	// Nodes lists every process. IDs must be exactly 0..len(Nodes)-1
	// (the engines index peers densely), in any order.
	Nodes []NodeConfig `json:"nodes"`
}

// NodeConfig is one process's row.
type NodeConfig struct {
	ID int `json:"id"`
	// Addr is the peer-traffic listen address (host:port).
	Addr string `json:"addr"`
	// CtlAddr is the control-RPC listen address.
	CtlAddr string `json:"ctl_addr"`
	// StoreDir overrides the default StoreRoot/pNNN store directory.
	StoreDir string `json:"store_dir,omitempty"`
}

// N returns the cluster size.
func (c *Config) N() int { return len(c.Nodes) }

// Node returns the row for id.
func (c *Config) Node(id int) (NodeConfig, bool) {
	for _, nc := range c.Nodes {
		if nc.ID == id {
			return nc, true
		}
	}
	return NodeConfig{}, false
}

// StoreDir returns the stable-store directory for id.
func (c *Config) StoreDir(id int) string {
	if nc, ok := c.Node(id); ok && nc.StoreDir != "" {
		return nc.StoreDir
	}
	return stable.ProcDir(c.StoreRoot, protocol.ProcessID(id))
}

// RequestTimeout returns the configured §3.6 timeout.
func (c *Config) RequestTimeout() time.Duration {
	if c.RequestTimeoutMS <= 0 {
		return 5 * time.Second
	}
	return time.Duration(c.RequestTimeoutMS) * time.Millisecond
}

// compactEvery is how many commits a daemon's stable log takes between
// compactions: a boot replays at most this many commits' records on top
// of one snapshot (≈ 0.2 ms at 1.5 ms per thousand records), while the
// compaction's three fsyncs add under 0.05 to the syncs per commit.
const compactEvery = 64

// StoreOptions returns the stable.Options the daemons open stores with:
// the paper's discard rule (keep the newest permanent checkpoint only),
// applied on disk every compactEvery commits.
func (c *Config) StoreOptions() stable.Options {
	opts := stable.Options{Sync: stable.SyncOnCommit, Keep: 1, CompactEvery: compactEvery}
	if c.NoSync {
		opts.Sync = stable.SyncNever
	}
	return opts
}

// defaultPayloadChunkBytes is PayloadChunkBytes' default: the page size
// the synthetic image dirties, so dedup is counted per dirtied page.
const defaultPayloadChunkBytes = 4096

// ChunkOptions returns the chunkstore.Options for the payload plane
// (meaningful only when PayloadBytes > 0). Its ChunkBytes is also the
// image's page size.
func (c *Config) ChunkOptions() chunkstore.Options {
	chunk := c.PayloadChunkBytes
	if chunk <= 0 {
		chunk = defaultPayloadChunkBytes
	}
	opts := chunkstore.Options{
		ChunkBytes: chunk,
		Keep:       1,
		Sync:       stable.SyncOnCommit,
	}
	if c.NoSync {
		opts.Sync = stable.SyncNever
	}
	return opts
}

// daemonAlgorithms are the engines mcpd runs: the two variants of
// internal/core. Restart resolution (resolveInDoubt) asks a tentative's
// trigger Pid how the instance ended, and takes an own tentative with no
// commit record for an abort because core.Engine settles the initiator's
// checkpoint (Engine.settle) before it sends the first commit frame.
// Both rules need an engine whose trigger names the initiator and whose
// commit frames carry that trigger.
// elnozahy names every round (0, csn) whoever started it, and koo-toueg
// announces with KindDecision, so neither may run here.
var daemonAlgorithms = []string{algorithms.Mutable, algorithms.MutableTargeted}

// Validate rejects configs a cluster cannot run on. It is deliberately
// strict: a bad cluster file should fail every daemon at startup, not
// wedge the protocol at the first checkpoint.
func (c *Config) Validate() error {
	if len(c.Nodes) < 2 {
		return fmt.Errorf("daemon: config needs at least 2 nodes, got %d", len(c.Nodes))
	}
	if c.StoreRoot == "" {
		hasDirs := true
		for _, nc := range c.Nodes {
			if nc.StoreDir == "" {
				hasDirs = false
			}
		}
		if !hasDirs {
			return fmt.Errorf("daemon: config needs store_root (or a store_dir on every node)")
		}
	}
	if c.Algorithm != "" && !slices.Contains(daemonAlgorithms, c.Algorithm) {
		return fmt.Errorf("daemon: algorithm %q: mcpd runs only %q: restart resolution relies on the mutable engine's triggers and commit order",
			c.Algorithm, daemonAlgorithms)
	}
	if c.PayloadBytes > 0 {
		if _, err := workload.ParseImageProfile(c.PayloadProfile); err != nil {
			return fmt.Errorf("daemon: %w", err)
		}
		switch c.PayloadMode {
		case "", chunkstore.ModeIncremental.String():
		case "delta", "full":
			return fmt.Errorf("daemon: payload_mode %q was removed: the chunk store has one mode, %q",
				c.PayloadMode, chunkstore.ModeIncremental)
		default:
			return fmt.Errorf("daemon: unknown payload_mode %q (want %q)", c.PayloadMode, chunkstore.ModeIncremental)
		}
	}
	seen := make(map[int]bool, len(c.Nodes))
	addrs := make(map[string]string, 2*len(c.Nodes))
	dirs := make(map[string]int, len(c.Nodes))
	for _, nc := range c.Nodes {
		if nc.ID < 0 || nc.ID >= len(c.Nodes) {
			return fmt.Errorf("daemon: node id %d outside 0..%d (ids must be dense)", nc.ID, len(c.Nodes)-1)
		}
		if seen[nc.ID] {
			return fmt.Errorf("daemon: duplicate node id %d", nc.ID)
		}
		seen[nc.ID] = true
		for _, p := range []struct{ what, addr string }{{"addr", nc.Addr}, {"ctl_addr", nc.CtlAddr}} {
			what, addr := p.what, p.addr
			if addr == "" {
				return fmt.Errorf("daemon: node %d has no %s — the cluster cannot reach it", nc.ID, what)
			}
			if prev, dup := addrs[addr]; dup {
				return fmt.Errorf("daemon: address %s used by both %s and node %d %s", addr, prev, nc.ID, what)
			}
			addrs[addr] = fmt.Sprintf("node %d %s", nc.ID, what)
		}
		dir := filepath.Clean(c.StoreDir(nc.ID))
		if prev, dup := dirs[dir]; dup {
			return fmt.Errorf("daemon: nodes %d and %d share store directory %s", prev, nc.ID, dir)
		}
		dirs[dir] = nc.ID
	}
	return nil
}

// LoopbackConfig returns the config of an n-node cluster on 127.0.0.1
// with its stores under storeRoot. Every peer and control address is a
// free port, found by binding and releasing it: another process could
// take one before the daemon binds it, which loopback's ephemeral range
// makes unlikely, not impossible.
func LoopbackConfig(n int, storeRoot string) (*Config, error) {
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close() //nolint:errcheck // only reserved the port
		}
	}()
	for i := 0; i < 2*n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("daemon: reserve a loopback port: %w", err)
		}
		lns = append(lns, ln)
	}
	cfg := &Config{StoreRoot: storeRoot}
	for i := 0; i < n; i++ {
		cfg.Nodes = append(cfg.Nodes, NodeConfig{
			ID: i, Addr: lns[i].Addr().String(), CtlAddr: lns[n+i].Addr().String(),
		})
	}
	return cfg, nil
}

// LoadConfig reads and validates a cluster config file (JSON).
func LoadConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("daemon: read config: %w", err)
	}
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("daemon: parse config %s: %w", path, err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &cfg, nil
}

// WriteConfig writes cfg to path (tests and mcpctl init).
func WriteConfig(path string, cfg *Config) error {
	data, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
