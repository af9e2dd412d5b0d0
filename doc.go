// Package mutablecp is a Go implementation of the mutable-checkpoint
// coordinated checkpointing algorithm of Cao and Singhal ("Mutable
// Checkpoints: A New Checkpointing Approach for Mobile Computing
// Systems"), together with the substrate the paper's evaluation needs: a
// discrete-event mobile-network simulator, the Koo–Toueg,
// Elnozahy–Johnson–Zwaenepoel and Chandy–Lamport baselines, the §3.1.1
// strawman schemes, workload generators, a consistency checker, a
// recovery manager, and a cluster daemon that runs the engine in real
// time over TCP with durable stores.
//
// # Quick start
//
// Run the algorithm as a live cluster of in-process daemons:
//
//	cluster, err := mutablecp.NewLiveCluster(mutablecp.LiveOptions{N: 4})
//	if err != nil { ... }
//	defer cluster.Close()
//	cluster.Send(0, 1, []byte("m1"))
//	committed, err := cluster.Checkpoint(0, time.Second)
//
// Reproduce a paper experiment under simulated time:
//
//	res, err := mutablecp.RunExperiment(mutablecp.ExperimentConfig{
//		Algorithm: mutablecp.AlgoMutable,
//		Rate:      0.05, // msgs/s per process
//	})
//	fmt.Println(res.Tentative.Mean(), res.Redundant.Mean())
//
// Regenerate the paper's figures and tables with the bundled tools:
//
//	go run ./cmd/mcpcompare -fig 5
//	go run ./cmd/mcpcompare
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for measured
// vs. published results.
package mutablecp
