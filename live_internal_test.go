package mutablecp

import (
	"errors"
	"io/fs"
	"net"
	"os"
	"testing"
	"time"
)

// TestCloseReleasesStoresAndPorts: Close deletes the stores the cluster
// wrote and unbinds every address it listened on, and a second cluster
// built right after it starts cleanly and commits.
func TestCloseReleasesStoresAndPorts(t *testing.T) {
	c, err := NewLiveCluster(LiveOptions{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	if committed, err := c.Checkpoint(0, 5*time.Second); err != nil || !committed {
		c.Close()
		t.Fatalf("committed=%v err=%v", committed, err)
	}
	cfg := c.cfg
	c.Close()
	if _, err := os.Stat(cfg.StoreRoot); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("store directory left behind: %v", err)
	}
	for _, nc := range cfg.Nodes {
		for _, addr := range []string{nc.Addr, nc.CtlAddr} {
			ln, err := net.Listen("tcp", addr)
			if err != nil {
				t.Fatalf("P%d's %s still bound after Close: %v", nc.ID, addr, err)
			}
			ln.Close() //nolint:errcheck
		}
	}

	second, err := NewLiveCluster(LiveOptions{N: 3})
	if err != nil {
		t.Fatalf("second cluster: %v", err)
	}
	defer second.Close()
	if committed, err := second.Checkpoint(1, 5*time.Second); err != nil || !committed {
		t.Fatalf("second cluster: committed=%v err=%v", committed, err)
	}
}
