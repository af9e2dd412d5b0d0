// Quickstart: run the mutable-checkpoint algorithm as a live cluster —
// four in-process mcpd daemons exchanging messages over loopback TCP,
// one coordinated checkpoint, and a verified recovery line.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"mutablecp"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const n = 4
	cluster, err := mutablecp.NewLiveCluster(mutablecp.LiveOptions{N: n})
	if err != nil {
		return err
	}
	defer cluster.Close()

	// Some application traffic: a ring of messages creating dependencies.
	for i := 0; i < 12; i++ {
		from := i % n
		to := (i + 1) % n
		if err := cluster.Send(from, to, []byte(fmt.Sprintf("msg-%d", i))); err != nil {
			return err
		}
	}
	if err := cluster.Quiesce(10 * time.Second); err != nil {
		return err
	}

	// P0 initiates a coordinated checkpoint. Only processes P0 depends on
	// (transitively) write checkpoints to stable storage; nobody blocks.
	committed, err := cluster.Checkpoint(0, 5*time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("checkpoint committed: %v\n", committed)

	if err := cluster.Quiesce(10 * time.Second); err != nil {
		return err
	}
	line := cluster.RecoveryLine()
	if err := mutablecp.VerifyConsistent(line); err != nil {
		return fmt.Errorf("recovery line inconsistent: %w", err)
	}
	fmt.Println("recovery line (consistent):")
	for p := 0; p < n; p++ {
		st := line[p]
		fmt.Printf("  P%d: csn=%d sent=%v recv=%v\n", p, st.CSN, st.SentTo, st.RecvFrom)
	}
	return nil
}
