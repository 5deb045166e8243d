// Shard assignment: the paper's motivating scenario — n fault-prone
// servers must assign themselves one-to-one to n shards, with servers
// crashing mid-protocol.
//
// This example runs one faithful state machine per server on the reference
// engine and injects random crashes with partial delivery of the victims'
// final broadcasts — the paper's failure model. The surviving servers still
// end up with unique shards. To run the same state machines with one
// goroutine per server over a real transport, see examples/transport.
//
// Run with:
//
//	go run ./examples/shardassign
package main

import (
	"fmt"
	"log"
	"sort"

	bil "ballsintoleaves"
)

const (
	servers = 32
	crashes = 8
)

func main() {
	// Give the servers recognizable identifiers.
	serverIDs := make([]uint64, servers)
	for i := range serverIDs {
		serverIDs[i] = uint64(1000 + 7*i)
	}

	res, err := bil.Rename(servers,
		bil.WithIDs(serverIDs),
		bil.WithSeed(7),
		bil.WithEngine(bil.ReferenceEngine), // one state machine per server
		bil.WithCrashes(bil.RandomCrashes(crashes, 9, 42)),
	)
	if err != nil {
		log.Fatal(err)
	}

	crashed := make(map[uint64]bool, len(res.Crashed))
	for _, id := range res.Crashed {
		crashed[id] = true
	}

	fmt.Printf("cluster of %d servers, %d crashed mid-protocol\n", servers, len(res.Crashed))
	fmt.Printf("assignment completed in %d synchronous rounds\n\n", res.Rounds)
	fmt.Println("server  shard   status")
	for _, id := range serverIDs {
		if crashed[id] {
			fmt.Printf("s-%d  —       crashed\n", id)
			continue
		}
		fmt.Printf("s-%d  #%-5d  ok (decided round %d)\n", id, res.Names[id], res.DecisionRound[id])
	}

	// Verify one-to-one: every surviving server holds a distinct shard.
	shards := make([]int, 0, len(res.Names))
	for _, shard := range res.Names {
		shards = append(shards, shard)
	}
	sort.Ints(shards)
	for i := 1; i < len(shards); i++ {
		if shards[i] == shards[i-1] {
			log.Fatalf("DUPLICATE shard %d — uniqueness violated!", shards[i])
		}
	}
	fmt.Printf("\n%d surviving servers hold %d distinct shards — tight renaming holds under crashes\n",
		len(res.Names), len(shards))
}
