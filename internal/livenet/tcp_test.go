package livenet_test

import (
	"sync"
	"testing"
	"time"

	"mutablecp/internal/algorithms"
	"mutablecp/internal/consistency"
	"mutablecp/internal/livenet"
	"mutablecp/internal/protocol"
)

func newTCP(t *testing.T, n int, algo string) *livenet.Cluster {
	t.Helper()
	factory, err := algorithms.New(algo)
	if err != nil {
		t.Fatal(err)
	}
	c, err := livenet.NewTCP(livenet.Config{N: n, NewEngine: factory})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestTCPCheckpointCommits(t *testing.T) {
	c := newTCP(t, 4, algorithms.Mutable)
	for i := 0; i < 20; i++ {
		if err := c.Send(i%4, (i+1)%4, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	c.Quiesce(20 * time.Millisecond)
	committed, err := c.Checkpoint(0, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !committed {
		t.Fatal("TCP checkpoint aborted")
	}
	c.Quiesce(20 * time.Millisecond)
	if err := consistency.Check(c.PermanentLine()); err != nil {
		t.Fatal(err)
	}
}

func TestTCPFIFOPerChannel(t *testing.T) {
	var mu sync.Mutex
	var got []int
	factory, _ := algorithms.New(algorithms.Mutable)
	c, err := livenet.NewTCP(livenet.Config{
		N:         3,
		NewEngine: factory,
		OnDeliver: func(to, from protocol.ProcessID, payload []byte) {
			if to == 1 && from == 0 {
				mu.Lock()
				got = append(got, int(payload[0]))
				mu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const k = 200
	for i := 0; i < k; i++ {
		if err := c.Send(0, 1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == k || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != k {
		t.Fatalf("delivered %d/%d over TCP", len(got), k)
	}
	for i, v := range got {
		if v != byte255(i) {
			t.Fatalf("TCP channel reordered at %d: %v", i, got[:i+1])
		}
	}
}

func byte255(i int) int { return int(byte(i)) }

func TestTCPMultipleRounds(t *testing.T) {
	c := newTCP(t, 3, algorithms.Mutable)
	for round := 0; round < 3; round++ {
		_ = c.Send(1, 0, nil)
		_ = c.Send(2, 1, nil)
		c.Quiesce(20 * time.Millisecond)
		committed, err := c.Checkpoint(0, 10*time.Second)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !committed {
			t.Fatalf("round %d aborted", round)
		}
	}
	c.Quiesce(20 * time.Millisecond)
	if err := consistency.Check(c.PermanentLine()); err != nil {
		t.Fatal(err)
	}
}

func TestTCPBaselineAlgorithms(t *testing.T) {
	for _, algo := range []string{algorithms.KooToueg, algorithms.Elnozahy} {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			c := newTCP(t, 3, algo)
			_ = c.Send(1, 0, nil)
			c.Quiesce(20 * time.Millisecond)
			committed, err := c.Checkpoint(0, 10*time.Second)
			if err != nil || !committed {
				t.Fatalf("committed=%v err=%v", committed, err)
			}
		})
	}
}

// TestTCPKilledConnectionRecovers: killing a connection mid-run must not
// wedge the channel — the sender discovers the break on its next write,
// re-dials with backoff, and traffic (including a full checkpointing
// round) continues.
func TestTCPKilledConnectionRecovers(t *testing.T) {
	var mu sync.Mutex
	var got []int
	factory, err := algorithms.New(algorithms.Mutable)
	if err != nil {
		t.Fatal(err)
	}
	c, err := livenet.NewTCP(livenet.Config{
		N:         3,
		NewEngine: factory,
		OnDeliver: func(to, from protocol.ProcessID, payload []byte) {
			if to == 1 && from == 0 {
				mu.Lock()
				got = append(got, int(payload[0]))
				mu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	waitFor := func(k int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			mu.Lock()
			n := len(got)
			mu.Unlock()
			if n >= k {
				return
			}
			time.Sleep(time.Millisecond)
		}
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("delivered %d/%d after connection kill: %v", len(got), k, got)
	}

	for i := 0; i < 3; i++ {
		if err := c.Send(0, 1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(3)

	if err := c.KillConnection(0, 1); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 6; i++ {
		if err := c.Send(0, 1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(6)
	mu.Lock()
	for i, v := range got {
		if v != i {
			mu.Unlock()
			t.Fatalf("channel lost or reordered traffic after kill: %v", got)
		}
	}
	mu.Unlock()

	// The repaired mesh still runs the full protocol: kill another
	// connection, then checkpoint across it.
	if err := c.KillConnection(1, 0); err != nil {
		t.Fatal(err)
	}
	c.Quiesce(20 * time.Millisecond)
	committed, err := c.Checkpoint(0, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !committed {
		t.Fatal("checkpoint aborted after connection kills")
	}
	c.Quiesce(20 * time.Millisecond)
	if err := consistency.Check(c.PermanentLine()); err != nil {
		t.Fatal(err)
	}
}

// TestTCPKillConnectionValidation: the fault hook rejects channels that do
// not exist.
func TestTCPKillConnectionValidation(t *testing.T) {
	c := newTCP(t, 2, algorithms.Mutable)
	if err := c.KillConnection(0, 0); err == nil {
		t.Fatal("self-channel accepted")
	}
	if err := c.KillConnection(0, 5); err == nil {
		t.Fatal("out-of-range channel accepted")
	}
}

func TestTCPConfigValidation(t *testing.T) {
	if _, err := livenet.NewTCP(livenet.Config{N: 1}); err == nil {
		t.Fatal("N=1 accepted")
	}
	if _, err := livenet.NewTCP(livenet.Config{N: 3}); err == nil {
		t.Fatal("nil factory accepted")
	}
}
