// Quickstart: protect a key-value container with NiLiCon, drive it with
// a client, kill the primary host, and watch the service fail over to
// the backup with the TCP connection intact.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"nilicon/internal/core"
	"nilicon/internal/faultinject"
	"nilicon/internal/simtime"
	"nilicon/internal/workloads"
)

func main() {
	// 1. Build the two-host topology: primary and backup joined by a
	//    10 GbE replication link, clients on the 1 GbE LAN.
	sc := simtime.NewEngine()
	clock := sc.Root()
	cluster := core.NewShardedCluster(sc, core.ClusterParams{})

	// 2. Create the protected container (its root file system sits on
	//    the replicated DRBD device) and install a Redis-like store.
	ctr := cluster.NewProtectedContainer("kv", "10.0.0.10", 1)
	server := workloads.Redis()
	server.Install(ctr)

	// 3. Start NiLiCon with all optimizations and the paper's 30 ms
	//    epochs. Reattach rebuilds the workload on the backup at
	//    failover time.
	cfg := core.DefaultConfig()
	cfg.ExtraStopPerCheckpoint = server.Profile().TotalExtraStop()
	cfg.Reattach = func(rc core.RestoredContainer, state any) {
		if err := workloads.Redis().Reattach(rc, state); err != nil {
			fmt.Printf("reattach failed: %v\n", err)
		}
	}
	cfg.OnRecovered = func(_ core.RestoredContainer, st core.RecoveryStats) {
		fmt.Printf("RECOVERED: restore=%v arp=%v other=%v (epoch %d)\n",
			st.Restore, st.ARP, st.Other, st.CommittedEpoch)
	}
	repl := core.NewReplicator(cluster, ctr, cfg)
	repl.Start()

	// 4. A batched client hammers the store and verifies every read.
	clients := server.NewClients(cluster, "10.0.0.10", 1, 42)
	clock.RunFor(2 * simtime.Second)
	fmt.Printf("after 2s: %d requests completed, %d epochs, mean stop %.1fms\n",
		clients.Completed, repl.Epochs(), repl.StopTimes.Mean()*1000)

	// 5. Fail-stop the primary (block all its traffic, §VII-A).
	fmt.Println("injecting fail-stop fault on the primary host...")
	faultinject.FailStop(repl)

	// 6. The backup detects the missing heartbeats (~90 ms) and
	//    restores the container from the buffered committed state.
	clock.RunFor(5 * simtime.Second)
	fmt.Printf("after failover: %d requests completed, errors=%d, broken connections=%d\n",
		clients.Completed, len(clients.ValidationErrors()), clients.Resets)
	if len(clients.ValidationErrors()) == 0 && clients.Resets == 0 {
		fmt.Println("OK: failover was transparent — no lost or corrupted data, no broken connections")
	} else {
		fmt.Println("FAILURE: client observed inconsistencies")
	}
}
