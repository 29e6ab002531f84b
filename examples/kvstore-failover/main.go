// kvstore-failover demonstrates NiLiCon's output-commit rule and
// client-transparent failover at the level of individual requests:
// a write whose reply the client has seen is guaranteed to survive a
// primary failure, and a write in flight during the failure is applied
// exactly once after recovery via TCP retransmission.
//
//	go run ./examples/kvstore-failover
package main

import (
	"fmt"

	"nilicon/internal/core"
	"nilicon/internal/faultinject"
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
	"nilicon/internal/workloads"
)

func main() {
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
				fmt.Printf("  t=%v reply %d: op=%c %q\n", clock.Now(), replies, op, truncate(payload))
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
}

func truncate(b []byte) string {
	for len(b) > 0 && b[len(b)-1] == 0 {
		b = b[:len(b)-1] // records are zero-padded to 1 KiB
	}
	if len(b) > 24 {
		return string(b[:24]) + "..."
	}
	return string(b)
}
