package nilicon_test

import (
	"fmt"

	"nilicon/internal/core"
	"nilicon/internal/faultinject"
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
	"nilicon/internal/trace"
	"nilicon/internal/workloads"
)

// Example_quickstart protects a key-value container with NiLiCon,
// drives it with a client, kills the primary host, and watches the
// service fail over to the backup with the TCP connection intact.
//
//	go test -run Example_quickstart -v .
func Example_quickstart() {
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
	repl.Timeline = &trace.Timeline{}
	repl.Start()

	// 4. A batched client hammers the store and verifies every read.
	clients := server.NewClients(cluster, "10.0.0.10", 1, 42)
	clock.RunFor(2 * simtime.Second)
	var stop simtime.Duration
	for _, rec := range repl.Timeline.Records() {
		stop += rec.Stop
	}
	fmt.Printf("after 2s: %d requests completed, %d epochs, mean stop %.1fms\n",
		clients.Completed, repl.Epochs(), float64(stop)/1e6/float64(repl.Timeline.Len()))

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
	// Output:
	// after 2s: 31506 requests completed, 37 epochs, mean stop 18.9ms
	// injecting fail-stop fault on the primary host...
	// RECOVERED: restore=215.18ms arp=28ms other=7ms (epoch 36)
	// after failover: 187429 requests completed, errors=0, broken connections=0
	// OK: failover was transparent — no lost or corrupted data, no broken connections
}

// Example_kvstoreFailover demonstrates NiLiCon's output-commit rule and
// client-transparent failover at the level of individual requests: a
// write whose reply the client has seen is guaranteed to survive a
// primary failure, and a write in flight during the failure is applied
// exactly once after recovery via TCP retransmission.
//
//	go test -run Example_kvstoreFailover -v .
func Example_kvstoreFailover() {
	sc := simtime.NewEngine()
	clock := sc.Root()
	cluster := core.NewShardedCluster(sc, core.ClusterParams{})
	ctr := cluster.NewProtectedContainer("kv", "10.0.0.10", 1)
	server := workloads.Redis()
	server.Install(ctr)

	cfg := core.DefaultConfig()
	cfg.ExtraStopPerCheckpoint = server.Profile().TotalExtraStop()
	cfg.Reattach = func(rc core.RestoredContainer, state any) {
		if err := workloads.Redis().Reattach(rc, state); err != nil {
			fmt.Printf("reattach failed: %v\n", err)
		}
	}
	repl := core.NewReplicator(cluster, ctr, cfg)
	repl.Start()
	clock.RunFor(600 * simtime.Millisecond) // initial full synchronization

	// A hand-rolled client so we can see individual requests.
	var sock *simnet.Socket
	var fr workloads.FrameReader
	replies := 0
	stack := cluster.NewClient("10.0.0.1")
	stack.Connect("10.0.0.10", 6379, func(s *simnet.Socket) {
		sock = s
		s.OnData = func(s *simnet.Socket) {
			fr.Feed(s.ReadAll())
			for {
				op, payload, ok := fr.Next()
				if !ok {
					return
				}
				replies++
				fmt.Printf("  t=%v reply %d: op=%c %q\n", clock.Now(), replies, op, trimRecord(payload))
			}
		}
	})
	clock.RunFor(200 * simtime.Millisecond)

	set := func(key uint64, val string) {
		payload := append(workloads.KeyBytes(key), []byte(val)...)
		sock.Send(workloads.Frame(workloads.OpSet, payload))
	}
	get := func(key uint64) {
		sock.Send(workloads.Frame(workloads.OpGet, workloads.KeyBytes(key)))
	}

	fmt.Println("write k=1, wait for the committed reply:")
	sendAt := clock.Now()
	fmt.Printf("  (sent at t=%v; the reply timestamp below shows the\n   output-commit delay: the response waits for its epoch's checkpoint\n   to be acknowledged by the backup)\n", sendAt)
	set(1, "committed-value")
	clock.RunFor(200 * simtime.Millisecond)

	fmt.Println("write k=2 and fail the primary 1ms later (reply still buffered):")
	set(2, "in-flight-value")
	clock.RunFor(simtime.Millisecond)
	faultinject.FailStop(repl)
	clock.RunFor(5 * simtime.Second)

	fmt.Println("read both keys back from the failed-over container:")
	get(1)
	get(2)
	clock.RunFor(2 * simtime.Second)

	if repl.Backup.Recovered() {
		st := repl.Backup.Recovery
		fmt.Printf("recovery: restore=%v arp=%v other=%v\n", st.Restore, st.ARP, st.Other)
	}
	fmt.Printf("total replies: %d (expect 4: OK, OK, then both values — including\n  the write that was in flight when the primary died)\n", replies)
	// Output:
	// write k=1, wait for the committed reply:
	//   (sent at t=800ms; the reply timestamp below shows the
	//    output-commit delay: the response waits for its epoch's checkpoint
	//    to be acknowledged by the backup)
	//   t=860.290086ms reply 1: op=S "OK"
	// write k=2 and fail the primary 1ms later (reply still buffered):
	//   t=1.6003s reply 2: op=S "OK"
	// read both keys back from the failed-over container:
	//   t=6.0013s reply 3: op=G "committed-value"
	//   t=6.00133s reply 4: op=G "in-flight-value"
	// recovery: restore=215.18ms arp=28ms other=7ms
	// total replies: 4 (expect 4: OK, OK, then both values — including
	//   the write that was in flight when the primary died)
}

// trimRecord strips a kv record's zero padding (records are padded to
// 1 KiB) and shortens it for printing.
func trimRecord(b []byte) string {
	for len(b) > 0 && b[len(b)-1] == 0 {
		b = b[:len(b)-1]
	}
	if len(b) > 24 {
		return string(b[:24]) + "..."
	}
	return string(b)
}
