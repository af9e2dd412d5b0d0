package daemon

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mutablecp/internal/algorithms"
)

func validConfig() *Config {
	return &Config{
		Algorithm: "mutable",
		StoreRoot: "/tmp/mcpd-test-store",
		Nodes: []NodeConfig{
			{ID: 0, Addr: "127.0.0.1:9101", CtlAddr: "127.0.0.1:9201"},
			{ID: 1, Addr: "127.0.0.1:9102", CtlAddr: "127.0.0.1:9202"},
			{ID: 2, Addr: "127.0.0.1:9103", CtlAddr: "127.0.0.1:9203"},
		},
	}
}

// TestConfigValidation drives every rejection path: a bad cluster file
// must fail loudly at startup on every daemon, not wedge the protocol at
// the first checkpoint.
func TestConfigValidation(t *testing.T) {
	type configCase struct {
		name    string
		mutate  func(*Config)
		wantErr string // substring; empty = config must pass
	}
	cases := []configCase{
		{name: "valid", mutate: func(c *Config) {}},
		{
			name: "valid with per-node store dirs and no root",
			mutate: func(c *Config) {
				c.StoreRoot = ""
				for i := range c.Nodes {
					c.Nodes[i].StoreDir = filepath.Join("/tmp/s", c.Nodes[i].Addr)
				}
			},
		},
		{
			name:    "single node is not a cluster",
			mutate:  func(c *Config) { c.Nodes = c.Nodes[:1] },
			wantErr: "at least 2 nodes",
		},
		{
			name:    "no nodes",
			mutate:  func(c *Config) { c.Nodes = nil },
			wantErr: "at least 2 nodes",
		},
		{
			name:    "duplicate node id",
			mutate:  func(c *Config) { c.Nodes[2].ID = 1 },
			wantErr: "duplicate node id 1",
		},
		{
			name:    "sparse ids",
			mutate:  func(c *Config) { c.Nodes[2].ID = 7 },
			wantErr: "outside 0..2",
		},
		{
			name:    "negative id",
			mutate:  func(c *Config) { c.Nodes[0].ID = -1 },
			wantErr: "outside 0..2",
		},
		{
			name:    "unreachable node: empty data address",
			mutate:  func(c *Config) { c.Nodes[1].Addr = "" },
			wantErr: "node 1 has no addr",
		},
		{
			name:    "unreachable node: empty control address",
			mutate:  func(c *Config) { c.Nodes[2].CtlAddr = "" },
			wantErr: "node 2 has no ctl_addr",
		},
		{
			name:    "two nodes share a data address",
			mutate:  func(c *Config) { c.Nodes[1].Addr = c.Nodes[0].Addr },
			wantErr: "used by both",
		},
		{
			name:    "data address collides with a control address",
			mutate:  func(c *Config) { c.Nodes[1].Addr = c.Nodes[0].CtlAddr },
			wantErr: "used by both",
		},
		{
			name:    "store dir collision via override",
			mutate:  func(c *Config) { c.Nodes[1].StoreDir = c.StoreRoot + "/p000" },
			wantErr: "share store directory",
		},
		{
			name:    "no store root and incomplete overrides",
			mutate:  func(c *Config) { c.StoreRoot = ""; c.Nodes[0].StoreDir = "/tmp/only-one" },
			wantErr: "store_root",
		},
		{
			name:    "unknown algorithm",
			mutate:  func(c *Config) { c.Algorithm = "two-phase-wishing" },
			wantErr: "two-phase-wishing",
		},
		{name: "valid mutable-targeted", mutate: func(c *Config) { c.Algorithm = algorithms.MutableTargeted }},
		{name: "valid default algorithm", mutate: func(c *Config) { c.Algorithm = "" }},
		{name: "valid default payload mode", mutate: func(c *Config) { c.PayloadBytes = 4096 }},
		{
			name:   "valid incremental payload mode",
			mutate: func(c *Config) { c.PayloadBytes, c.PayloadMode = 4096, "incremental" },
		},
		{
			name:    "removed delta payload mode",
			mutate:  func(c *Config) { c.PayloadBytes, c.PayloadMode = 4096, "delta" },
			wantErr: `payload_mode "delta" was removed`,
		},
		{
			name:    "removed full payload mode",
			mutate:  func(c *Config) { c.PayloadBytes, c.PayloadMode = 4096, "full" },
			wantErr: `payload_mode "full" was removed`,
		},
		{
			name:    "unknown payload mode",
			mutate:  func(c *Config) { c.PayloadBytes, c.PayloadMode = 4096, "zip" },
			wantErr: `unknown payload_mode "zip"`,
		},
	}
	// Every other registered engine breaks restart resolution's rules
	// (daemonAlgorithms), so mcpd refuses it at startup.
	for _, name := range algorithms.Names() {
		if slices.Contains(daemonAlgorithms, name) {
			continue
		}
		cases = append(cases, configCase{
			name:    "registry algorithm " + name,
			mutate:  func(c *Config) { c.Algorithm = name },
			wantErr: "mcpd runs only",
		})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := validConfig()
			tc.mutate(cfg)
			err := cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("bad config accepted, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestStoreOptionsBoundTheLog pins the daemon's stable-log settings: the
// discard rule keeps one permanent, and compaction every 64 commits
// bounds what a restart replays. Keep 0 would keep every record forever.
func TestStoreOptionsBoundTheLog(t *testing.T) {
	for _, noSync := range []bool{false, true} {
		cfg := validConfig()
		cfg.NoSync = noSync
		opts := cfg.StoreOptions()
		if opts.Keep != 1 || opts.CompactEvery != 64 {
			t.Errorf("no_sync=%v: Keep %d CompactEvery %d, want 1 and 64", noSync, opts.Keep, opts.CompactEvery)
		}
	}
}

// TestChunkOptionsDefaultToImagePages pins the payload chunk size to the
// 4 KiB page the synthetic image dirties when the config leaves it unset;
// chunkstore's own 64 KiB default would count dedup per 16 pages.
func TestChunkOptionsDefaultToImagePages(t *testing.T) {
	cfg := Config{PayloadBytes: 256 << 10}
	if got := cfg.ChunkOptions().ChunkBytes; got != 4096 {
		t.Errorf("ChunkBytes %d with payload_chunk_bytes unset, want 4096", got)
	}
	cfg.PayloadChunkBytes = 2 << 10
	if got := cfg.ChunkOptions().ChunkBytes; got != 2<<10 {
		t.Errorf("ChunkBytes %d, want the configured %d", got, 2<<10)
	}
}

// TestConfigRoundTrip pins the file format Load expects.
func TestConfigRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cluster.json")
	in := validConfig()
	in.RequestTimeoutMS = 750
	if err := WriteConfig(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.N() != 3 || out.RequestTimeout().Milliseconds() != 750 {
		t.Fatalf("round trip mangled config: %+v", out)
	}
	if got := out.StoreDir(1); got != filepath.Join(in.StoreRoot, "p001") {
		t.Fatalf("default store dir: %s", got)
	}

	// LoadConfig does not reject unknown keys, so a file written when
	// writer_batch was still a setting (a batch now takes the whole
	// queue), or payload_workers (a save now hashes inline, only
	// the chunks that changed), keeps loading.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(data, []byte("{"), []byte("{\n  \"writer_batch\": 64,\n  \"payload_workers\": 4,"), 1)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err = LoadConfig(path); err != nil || out.N() != 3 {
		t.Fatalf("config file with a retired key: %v", err)
	}
}
