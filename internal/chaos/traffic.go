package chaos

import (
	"fmt"
	"slices"
	"sort"

	"nilicon/internal/container"
	"nilicon/internal/core"
	"nilicon/internal/simkernel"
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
	"nilicon/internal/traffic"
	"nilicon/internal/workloads"
)

// recordBytes is the kv server's record size (1 KB records, §VI).
const recordBytes = 1 << 10

// kvProfile is every chain's server: the benchmarks' workloads.Server
// with one single-threaded process whose heap holds keys 1 KB records
// plus a 32-page churn window, and two churned heap pages per request.
// A request costs no CPU, as in the line server the campaigns ran
// before: they judge fault handling, not capacity, and at the bench kv
// profile's 30 µs the redis capture (a closed-loop pipelined client
// replayed open-loop) asks for twice the server's capacity.
func kvProfile(keys int) workloads.Profile {
	return workloads.Profile{
		Name: "kv", Procs: 1, ThreadsPer: 1, LibsPerProc: 3,
		MemPages: (keys*recordBytes+simkernel.PageSize-1)/simkernel.PageSize + 32,
		Port:     6379, ReqDirty: 2,
		Records: keys,
	}
}

// kvServer is one chain's kv server and the fleet's cluster.Workload. A
// failover reattaches a fresh workloads.Server on the restored container
// (a partitioned old primary may still run the previous one); a failed
// reattach is recorded in the fresh server's AppErrors, which the
// acked-output oracle reads.
type kvServer struct {
	prof workloads.Profile
	srv  *workloads.Server
}

func (k *kvServer) Install(ctr *container.Container) {
	k.srv = workloads.NewServer(k.prof)
	k.srv.Install(ctr)
}

func (k *kvServer) Reattach(ctr *container.Container, state any) {
	k.srv = workloads.NewServer(k.prof)
	_ = k.srv.Reattach(ctr, state)
}

// writerTrace is the campaign's load unless Config.Traffic names one: a
// single client writing a unique key every writeEvery over the fault
// window, each SET a full record (key i, request ID i+1).
func writerTrace(d simtime.Duration) *traffic.Trace {
	n := int(d / writeEvery)
	tr := &traffic.Trace{Header: traffic.Header{
		Version: traffic.TraceVersion, Name: "writer", Clients: 1, Keys: n,
	}}
	for i := 0; i < n; i++ {
		tr.Reqs = append(tr.Reqs, traffic.Request{
			ID: uint64(i + 1), At: int64(simtime.Duration(i) * writeEvery),
			Op: traffic.OpSet, Key: uint64(i), Size: recordBytes,
		})
	}
	return tr
}

// clients replays the campaign's trace open-loop against every chain
// the campaign protects: one traffic.Replayer and one workloads.Conn
// per trace client for each chain, arrivals fired at trace time, and
// every completion judged by a single shared judge — the SLO is "what
// any client of any chain observed". Under Config.Traffic the 1 ms
// oracle ticker doubles as the limiting-factor sampler, so each SLO
// window knows which pipeline mechanism (checkpoint stall, transfer
// backlog, fence, replay CPU, client-side queueing) was throttling
// clients while it violated.
type clients struct {
	judge *traffic.Judge
	reps  []*traffic.Replayer // per chain
	conns [][]*workloads.Conn // per chain, per trace client
	// wrote[key] maps each version an acknowledged SET wrote to that key
	// to the SET's size — the acceptable read-backs (per connection TCP
	// FIFO fixes each client's write order, but cross-client
	// interleaving is unconstrained). Every chain replays the same
	// trace, so the map is shared; setAcks counts the SET replies.
	wrote   map[uint64]map[uint32]int
	setAcks int
}

// load sums, across chains, the requests issued, those in flight, and
// those still queued client-side.
func (d *clients) load() (issued, outstanding, queued int) {
	for _, rep := range d.reps {
		issued += rep.Issued()
		outstanding += rep.Outstanding()
		queued += rep.QueuedClientSide()
	}
	return issued, outstanding, queued
}

// startClients connects every chain's trace clients before the first
// epoch boundary — the unoptimized configuration drops input (firewall
// rules, §V-C) during its long stop phases, and a SYN that keeps
// missing the short open windows may never get through — and starts
// the replay at warmup. A request that arrives before its connection
// is up waits in the connection's queue.
func (c *campaign) startClients() {
	d := &clients{judge: traffic.NewJudge(traffic.SLO{}), wrote: make(map[uint64]map[uint32]int)}
	c.clients = d
	c.clock.Schedule(simtime.Millisecond, func() {
		for g := 0; g < c.groups(); g++ {
			rep := traffic.NewReplayer(c.clock, c.tr, d.judge)
			conns := make([]*workloads.Conn, c.tr.Header.Clients)
			for i := range conns {
				i := i
				conns[i] = c.dial(g, i)
				conns[i].OnReply = func(req traffic.Request, _ []byte) {
					if req.Op == traffic.OpSet {
						d.acked(req)
					}
					rep.Completed(i)
				}
				rep.SetConn(i, conns[i])
			}
			d.reps = append(d.reps, rep)
			d.conns = append(d.conns, conns)
		}
	})
	c.clock.Schedule(c.warmup, func() {
		start := c.clock.Now()
		for _, rep := range d.reps {
			rep.Start(start)
		}
	})
}

// acked records one SET's reply.
func (d *clients) acked(req traffic.Request) {
	d.setAcks++
	vs := d.wrote[req.Key]
	if vs == nil {
		vs = make(map[uint32]int)
		d.wrote[req.Key] = vs
	}
	vs[uint32(req.ID)] = req.Size
}

// dial connects client i of chain g to the chain's server from its own
// address. Clients below the trace's client count are the trace's; the
// next one is the read-back verifier.
func (c *campaign) dial(g, i int) *workloads.Conn {
	ip := simnet.Addr(fmt.Sprintf("10.%d.%d.%d", 100+i/250, g, 1+i%250))
	if c.pool != nil {
		return workloads.Dial(c.pool.NewClient(ip), c.pool.Pairs[g].IP, c.prof.Port)
	}
	return workloads.Dial(c.repl.Cluster.NewClient(ip), pairIP, c.prof.Port)
}

// server returns chain g's kv server.
func (c *campaign) server(g int) *kvServer {
	if c.pool != nil {
		return c.pool.Pairs[g].Workload.(*kvServer)
	}
	return c.srv
}

// sampleTraffic is the oracle ticker's limiting-factor probe: it
// attributes one Factors sample to the current SLO window. Per-chain
// signals OR together — the SLO is judged across every chain.
func (c *campaign) sampleTraffic() {
	d := c.clients
	var f traffic.Factors
	nobodyServing := false
	c.eachGroup(func(_ string, r *core.Replicator, _ bool) {
		// The serving side's container: the primary until a failover,
		// the restored container after it.
		ctr := r.Ctr
		if r.Backup.Serving() && r.Backup.RestoredCtr != nil {
			ctr = r.Backup.RestoredCtr
		}
		f.CheckpointStall = f.CheckpointStall || ctr.Frozen()
		f.Fence = f.Fence || r.Fenced()
		nobodyServing = nobodyServing || servingCount(r) == 0
	})
	_, xferQueued := c.xferLoad()
	f.TransferBacklog = xferQueued > trafficBacklogBytes
	// During a HyCoR-mode failover the recovery path is dominated by
	// re-executing the committed nondeterminism-log suffix; attribute
	// those instants to replay CPU rather than the generic fence. A
	// chain knows its failover is in progress from kill to recovery; a
	// fleet sees it as a pair nobody serves.
	recovering := c.killPending
	if c.pool != nil {
		recovering = nobodyServing
	}
	f.ReplayCPU = recovering && c.cfg.Opts.RecordReplay
	// A kill's client-visible damage outlasts the recovery instant: the
	// outage's backlog keeps completing late until RTO-deferred
	// retransmits land. Attribute that drain tail to the fence that
	// caused it, and record when it ends — finishTraffic uses it as the
	// disruption span's true end.
	_, outstanding, queued := d.load()
	postKillDrain := len(c.kills) > len(c.killDrains) && !c.killPending
	if postKillDrain && outstanding == 0 && queued == 0 {
		c.killDrains = append(c.killDrains, c.clock.Now())
		postKillDrain = false
	}
	f.Fence = (f.Fence || nobodyServing || postKillDrain) && !f.ReplayCPU
	f.ClientQueue = queued > 0
	d.judge.Sample(c.clock.Now(), f)
}

// trafficBacklogBytes is the queued-byte depth on the transfer
// schedulers above which the backlog is considered release-limiting.
const trafficBacklogBytes = 256 << 10

// verifyAckedOutput is the acked-output oracle, judged on every chain
// with the survivors serving: no server recorded an app error (a heap
// that cannot hold the trace's keys, a failed reattach), every SET a
// client issued got its SET reply and every reply its request's op,
// and every key an acknowledged SET wrote reads back, through a fresh
// connection, a version some acknowledged SET wrote to it — for a key
// written once, exactly its value.
func (c *campaign) verifyAckedOutput() {
	d := c.clients
	if !slices.ContainsFunc(c.tr.Reqs, func(r traffic.Request) bool { return r.Op == traffic.OpSet }) {
		return // the trace writes nothing
	}
	if !c.cfg.Opts.PlugInput {
		c.verdicts = append(c.verdicts, firewallSkip("acked-output"))
		return
	}
	// Let retransmissions settle, then read every written key back.
	c.clock.RunFor(2 * simtime.Second)
	keys := make([]uint64, 0, len(d.wrote))
	for k := range d.wrote {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	bad := ""
	verifiers := make([]*workloads.Conn, c.groups())
	for g := range verifiers {
		who := c.who(g)
		verifiers[g] = c.dial(g, c.tr.Header.Clients)
		verifiers[g].OnReply = func(req traffic.Request, rec []byte) {
			key, version, n := workloads.DecodeValue(rec)
			size, ok := d.wrote[req.Key][version]
			if bad == "" && (n == 0 || key != req.Key || !ok || n < min(size, recordBytes)) {
				got := "(nil)"
				if len(rec) > 0 {
					got = fmt.Sprintf("k%d v%d with %d/%d bytes intact", key, version, n, len(rec))
				}
				bad = fmt.Sprintf("%sGET k%d = %s, not a recorded write", who, req.Key, got)
			}
		}
	}
	for _, k := range keys {
		for _, v := range verifiers {
			v.Send(traffic.Request{Op: traffic.OpGet, Key: k})
		}
		c.clock.RunFor(2 * simtime.Millisecond)
	}
	pending := func() bool {
		for _, v := range verifiers {
			if len(v.InFlight()) > 0 {
				return true
			}
		}
		return false
	}
	deadline := c.clock.Now().Add(c.convergeIn)
	for pending() && c.clock.Now() < deadline {
		c.clock.RunFor(10 * simtime.Millisecond)
	}

	detail := c.ackFailure()
	for g, v := range verifiers {
		if detail != "" {
			break
		}
		switch {
		case len(v.Errors) > 0:
			detail = c.who(g) + "verifier: " + v.Errors[0]
		case !v.Connected():
			detail = c.who(g) + "verification connection never established"
		case len(v.InFlight()) > 0:
			detail = fmt.Sprintf("%sonly %d/%d read-backs arrived", c.who(g), len(keys)-len(v.InFlight()), len(keys))
		}
	}
	if detail == "" {
		detail = bad
	}
	ok := detail == ""
	if ok {
		detail = fmt.Sprintf("%d SETs acked, %d keys read back to a recorded write", d.setAcks, len(keys))
		if c.pool != nil {
			detail = fmt.Sprintf("%d SETs acked, %d keys × %d pairs read back to recorded writes", d.setAcks, len(keys), len(verifiers))
		}
	}
	c.verdicts = append(c.verdicts, Verdict{Oracle: "acked-output", OK: ok, Detail: detail})
}

// ackFailure names the first server app error, protocol violation or
// issued SET still without its reply, on any chain ("" when none).
func (c *campaign) ackFailure() string {
	for g, conns := range c.clients.conns {
		if errs := c.server(g).srv.AppErrors(); len(errs) > 0 {
			return fmt.Sprintf("%sserver app error: %s", c.who(g), errs[0])
		}
		for i, conn := range conns {
			if len(conn.Errors) > 0 {
				return fmt.Sprintf("%sclient %d: %s", c.who(g), i, conn.Errors[0])
			}
			for _, req := range conn.InFlight() {
				if req.Op == traffic.OpSet {
					return fmt.Sprintf("%sclient %d: SET k%d (request %d) got no reply", c.who(g), i, req.Key, req.ID)
				}
			}
		}
	}
	return ""
}

// finishTraffic closes the SLO evaluation of a Config.Traffic campaign:
// emit the judged report and attribution as trace lines, and add the
// slo-windows oracle — every violation window must overlap a
// disruption span padded by sloSlack. The spans are the injected
// transient faults and each kill up to the drain of the client backlog
// it caused. Client-visible SLO damage outside every span means the
// pipeline itself (not the fault schedule) hurt clients, which is
// exactly what the oracle exists to catch.
func (c *campaign) finishTraffic() {
	rep := c.clients.judge.Finish(c.clock.Now())
	c.sloReport = &rep
	fmt.Fprintf(&c.trace, "t=%d %s\n", int64(c.clock.Now()), rep.Line())
	fmt.Fprintf(&c.trace, "t=%d %s\n", int64(c.clock.Now()), rep.AttributionLine())

	type span struct{ from, to simtime.Time }
	var disruptions []span
	for _, ev := range c.sched.events {
		disruptions = append(disruptions, span{simtime.Time(ev.At), simtime.Time(ev.At + ev.For)})
	}
	for i, k := range c.kills {
		to := c.clock.Now()
		if i < len(c.killDrains) {
			to = c.killDrains[i]
		}
		disruptions = append(disruptions, span{k, to})
	}

	start := simtime.Time(c.warmup) // replay anchor: windows are relative to it
	bad := 0
	firstBad := ""
	for _, w := range rep.Windows {
		if !w.Violation {
			continue
		}
		ws := start.Add(w.Start)
		we := start.Add(w.Start + rep.SLO.Window)
		covered := false
		for _, sp := range disruptions {
			if we > sp.from.Add(-sloSlack) && ws < sp.to.Add(sloSlack) {
				covered = true
				break
			}
		}
		if !covered {
			bad++
			if firstBad == "" {
				firstBad = fmt.Sprintf("window %d [%d,%d)ms outside every fault interval ±%s",
					w.Index, int64(ws)/int64(simtime.Millisecond), int64(we)/int64(simtime.Millisecond), sloSlack)
			}
		}
	}
	detail := fmt.Sprintf("%d violation windows, all within fault intervals ±%s", rep.Violations, sloSlack)
	if bad > 0 {
		detail = fmt.Sprintf("%d/%d violation windows uncovered: %s", bad, rep.Violations, firstBad)
	}
	c.verdicts = append(c.verdicts, Verdict{Oracle: "slo-windows", OK: bad == 0, Detail: detail})
}
