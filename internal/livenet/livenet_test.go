package livenet_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mutablecp/internal/algorithms"
	"mutablecp/internal/consistency"
	"mutablecp/internal/core"
	"mutablecp/internal/livenet"
	"mutablecp/internal/protocol"
)

func newLive(t *testing.T, n int, algo string) *livenet.Cluster {
	t.Helper()
	factory, err := algorithms.New(algo)
	if err != nil {
		t.Fatal(err)
	}
	c, err := livenet.New(livenet.Config{N: n, NewEngine: factory})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestLiveCheckpointCommits(t *testing.T) {
	c := newLive(t, 4, algorithms.Mutable)
	for i := 0; i < 20; i++ {
		from := i % 4
		to := (i + 1) % 4
		if err := c.Send(from, to, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	c.Quiesce(10 * time.Millisecond)
	committed, err := c.Checkpoint(0, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !committed {
		t.Fatal("live checkpoint aborted")
	}
	c.Quiesce(10 * time.Millisecond)
	if err := consistency.Check(c.PermanentLine()); err != nil {
		t.Fatal(err)
	}
}

func TestLiveDeliveryCountsAndOrder(t *testing.T) {
	var mu sync.Mutex
	var got []int
	factory := func(env protocol.Env) protocol.Engine { return core.New(env) }
	c, err := livenet.New(livenet.Config{
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
	for i := 0; i < 100; i++ {
		if err := c.Send(0, 1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	c.Quiesce(10 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 100 {
		t.Fatalf("delivered %d, want 100", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated at %d: %v", i, got[:i+1])
		}
	}
}

func TestLiveCheckpointUnderConcurrentTraffic(t *testing.T) {
	c := newLive(t, 6, algorithms.Mutable)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				to := (g + 1 + i%5) % 6
				if to != g {
					_ = c.Send(g, to, nil)
				}
				i++
				time.Sleep(100 * time.Microsecond)
			}
		}()
	}
	for round := 0; round < 5; round++ {
		committed, err := c.Checkpoint(round%6, 10*time.Second)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !committed {
			t.Fatalf("round %d aborted", round)
		}
	}
	close(stop)
	wg.Wait()
	c.Quiesce(20 * time.Millisecond)
	if err := consistency.Check(c.PermanentLine()); err != nil {
		t.Fatalf("inconsistent under live traffic: %v", err)
	}
}

func TestLiveAllAlgorithms(t *testing.T) {
	for _, algo := range []string{algorithms.Mutable, algorithms.KooToueg, algorithms.Elnozahy, algorithms.ChandyLamport} {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			c := newLive(t, 4, algo)
			for i := 0; i < 12; i++ {
				_ = c.Send(i%4, (i+1)%4, nil)
			}
			c.Quiesce(10 * time.Millisecond)
			committed, err := c.Checkpoint(1, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if !committed {
				t.Fatal("aborted")
			}
			c.Quiesce(10 * time.Millisecond)
			if err := consistency.Check(c.PermanentLine()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestLiveWithNetworkDelay(t *testing.T) {
	factory, _ := algorithms.New(algorithms.Mutable)
	c, err := livenet.New(livenet.Config{N: 4, NewEngine: factory, Delay: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 8; i++ {
		_ = c.Send(i%4, (i+2)%4, nil)
	}
	committed, err := c.Checkpoint(2, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !committed {
		t.Fatal("aborted")
	}
}

func TestLiveBadSendRejected(t *testing.T) {
	c := newLive(t, 2, algorithms.Mutable)
	if err := c.Send(0, 0, nil); err == nil {
		t.Fatal("self-send accepted")
	}
	if err := c.Send(0, 9, nil); err == nil {
		t.Fatal("out-of-range accepted")
	}
}

func TestLiveConfigValidation(t *testing.T) {
	if _, err := livenet.New(livenet.Config{N: 1}); err == nil {
		t.Fatal("N=1 accepted")
	}
	if _, err := livenet.New(livenet.Config{N: 3}); err == nil {
		t.Fatal("nil factory accepted")
	}
}

func TestLiveSequentialCheckpointsAdvanceLine(t *testing.T) {
	c := newLive(t, 3, algorithms.Mutable)
	var lastCSN int
	for round := 1; round <= 3; round++ {
		_ = c.Send(1, 0, nil)
		_ = c.Send(0, 2, nil)
		c.Quiesce(5 * time.Millisecond)
		committed, err := c.Checkpoint(0, 5*time.Second)
		if err != nil || !committed {
			t.Fatalf("round %d: committed=%v err=%v", round, committed, err)
		}
		c.Quiesce(5 * time.Millisecond)
		line := c.PermanentLine()
		if line[0].CSN <= lastCSN {
			t.Fatalf("round %d: P0 csn did not advance (%d)", round, line[0].CSN)
		}
		lastCSN = line[0].CSN
		if err := consistency.Check(line); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLiveTimeout(t *testing.T) {
	// A 0-timeout checkpoint on a cluster with pending dependencies
	// reports a timeout error rather than hanging.
	c := newLive(t, 3, algorithms.Mutable)
	_ = c.Send(1, 0, nil)
	c.Quiesce(5 * time.Millisecond)
	_, err := c.Checkpoint(0, time.Nanosecond)
	if err == nil {
		t.Skip("checkpoint won the race against a nanosecond timeout")
	}
	if fmt.Sprint(err) == "" {
		t.Fatal("empty error")
	}
	// Let the instance finish in the background before Close.
	c.Quiesce(10 * time.Millisecond)
}
