package faultinject

import (
	"bytes"
	"fmt"
	"testing"

	"nilicon/internal/core"
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
	"nilicon/internal/workloads"
)

// olConn is one open-loop client connection: it writes a SET every
// olGap whether or not earlier replies have arrived, and matches
// replies to requests in order.
type olConn struct {
	sock     *simnet.Socket
	fr       workloads.FrameReader
	inflight []*olReq
}

type olReq struct {
	key       uint64
	get       bool
	due, done simtime.Time
	reply     []byte
}

const (
	olConns = 4
	olGap   = 4 * simtime.Millisecond // 250 req/s per connection
	olValue = 1024                    // one whole record per SET
)

func (c *olConn) send(req *olReq) {
	c.inflight = append(c.inflight, req)
	if req.get {
		c.sock.Send(workloads.Frame(workloads.OpGet, workloads.KeyBytes(req.key)))
		return
	}
	c.sock.Send(workloads.Frame(workloads.OpSet, append(workloads.KeyBytes(req.key), workloads.ValueFor(req.key, 1, olValue)...)))
}

func (c *olConn) onData(s *simnet.Socket, now func() simtime.Time) {
	c.fr.Feed(s.ReadAll())
	for {
		_, payload, ok := c.fr.Next()
		if !ok || len(c.inflight) == 0 {
			return
		}
		c.inflight[0].done, c.inflight[0].reply = now(), payload
		c.inflight = c.inflight[1:]
	}
}

// A fail-stopped pair under open-loop load resumes serving as soon as
// the backup's network is live. The clients keep writing into the
// outage, so their TCP must recover the lost segments from the restored
// server's duplicate ACKs (fast retransmit), not from a retransmission
// timer that every new write would otherwise push out. The first reply
// to a request issued after the fault may come at most 50 ms after
// detection, the promotion barrier, restore and ARP; every SET issued
// before the fault is readable afterwards, and nothing is reset.
func TestFailStopOpenLoopResumesAtNetworkLive(t *testing.T) {
	sc := simtime.NewEngine()
	clock := sc.Root()
	cl := core.NewShardedCluster(sc, core.ClusterParams{})
	prof := workloads.Profile{
		Name: "kv", Procs: 1, ThreadsPer: 1, LibsPerProc: 2,
		MemPages: 2048, Port: 6380,
		ReqCPU: 30 * simtime.Microsecond, ReqDirty: 2,
		Records: 4096,
	}
	srv := workloads.NewServer(prof)
	ctr := cl.NewProtectedContainer(prof.Name, "10.0.0.10", 1)
	srv.Install(ctr)
	var restored *workloads.Server
	cfg := core.DefaultConfig()
	cfg.Lease = core.DefaultLease()
	cfg.Reattach = func(rc core.RestoredContainer, state any) {
		restored = workloads.NewServer(prof)
		if err := restored.Reattach(rc, state); err != nil {
			t.Errorf("reattach: %v", err)
		}
	}
	repl := core.NewReplicator(cl, ctr, cfg)
	repl.Start()
	clock.RunFor(simtime.Second) // past the initial full sync

	conns := make([]*olConn, olConns)
	for i := range conns {
		c := &olConn{}
		conns[i] = c
		st := cl.NewClient(simnet.Addr(fmt.Sprintf("10.2.0.%d", i+1)))
		st.Connect("10.0.0.10", prof.Port, func(s *simnet.Socket) {
			c.sock = s
			s.OnData = func(s *simnet.Socket) { c.onData(s, clock.Now) }
		})
	}
	clock.RunFor(100 * simtime.Millisecond)

	// Two seconds of arrivals with the fault in the middle, off any
	// epoch boundary, then two seconds for the stragglers.
	start := clock.Now()
	fault := start.Add(simtime.Second + 1300*simtime.Microsecond)
	var sets []*olReq
	for i, c := range conns {
		for at := start.Add(simtime.Duration(i) * simtime.Millisecond); at < start.Add(2*simtime.Second); at = at.Add(olGap) {
			req := &olReq{key: uint64(len(sets)), due: at}
			sets = append(sets, req)
			clock.ScheduleAt(at, func() { c.send(req) })
		}
	}
	clock.RunUntil(fault)
	FailStop(repl)
	clock.RunUntil(start.Add(4 * simtime.Second))

	b := repl.Backup
	if !b.Recovered() || b.RecoverError() != nil || b.Recovery == nil {
		t.Fatalf("no recovery (err=%v)", b.RecoverError())
	}
	first := simtime.Time(0)
	for _, r := range sets {
		if r.due >= fault && r.done != 0 && (first == 0 || r.done < first) {
			first = r.done
		}
	}
	live := b.Recovery.NetworkLiveAt.Sub(fault)
	if first == 0 {
		t.Fatal("no request issued after the fault was answered")
	}
	if gap := first.Sub(fault); gap > live+50*simtime.Millisecond {
		t.Fatalf("client-observed gap %v, network live after %v: TCP resume took %v, want <= 50ms",
			gap, live, gap-live)
	}

	// Read back every SET issued before the fault.
	var gets []*olReq
	for i, r := range sets {
		if r.due >= fault {
			continue
		}
		if r.done == 0 {
			t.Fatalf("SET %d (due %v) never answered", r.key, r.due)
		}
		g := &olReq{key: r.key, get: true}
		gets = append(gets, g)
		conns[i%olConns].send(g)
	}
	clock.RunFor(2 * simtime.Second)
	for _, g := range gets {
		if want := workloads.ValueFor(g.key, 1, olValue); g.done == 0 || !bytes.Equal(g.reply, want) {
			t.Fatalf("key %d written before the fault reads back %d bytes, want its %d-byte value", g.key, len(g.reply), olValue)
		}
	}
	for i, c := range conns {
		if c.sock.Reset {
			t.Fatalf("client %d reset", i)
		}
	}
	if n := b.RestoredCtr.Stack.RSTsSent(); n != 0 {
		t.Fatalf("restored container sent %d RSTs", n)
	}
	if errs := append(srv.AppErrors(), restored.AppErrors()...); len(errs) > 0 {
		t.Fatalf("server errors: %v", errs)
	}
	t.Logf("gap %v = network live %v + resume %v", first.Sub(fault), live, first.Sub(fault)-live)
}
