package chaos

import (
	"fmt"
	"sort"

	"nilicon/internal/core"
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
	"nilicon/internal/traffic"
)

// trafficDriver replaces the fixed-interval writer with an open-loop
// trace replay against every chain the campaign protects: one
// traffic.Replayer and one real TCP connection per trace client for
// each chain, arrivals fired at trace time, and every completion judged
// by a single shared judge — the SLO is "what any client of any chain
// observed". The 1 ms oracle ticker doubles as the limiting-factor
// sampler, so each SLO window knows which pipeline mechanism
// (checkpoint stall, transfer backlog, fence, replay CPU, client-side
// queueing) was throttling clients while it violated.
type trafficDriver struct {
	judge *traffic.Judge
	reps  []*traffic.Replayer // per chain
	conns [][]*trafficConn    // per chain, per trace client
	// wrote[key] is the set of request IDs ever SET to that key — the
	// acceptable read-back values for the traffic-data oracle (per
	// connection TCP FIFO fixes each client's write order, but
	// cross-client interleaving is unconstrained). Every chain replays
	// the same trace, so the set is shared.
	wrote map[uint64]map[uint64]bool
}

// trafficConn adapts one kvClient connection to traffic.Conn. Sends
// issued before the TCP handshake completes (the unoptimized
// configuration can freeze the container for hundreds of milliseconds
// straight through warmup) are buffered and flushed by the oracle
// ticker once the socket is up — virtual time only, so deterministic.
type trafficConn struct {
	wrote   map[uint64]map[uint64]bool
	cli     *kvClient
	pending []string
}

func (tc *trafficConn) Send(req traffic.Request) {
	var line string
	if req.Op == traffic.OpSet {
		line = fmt.Sprintf("SET k%d v%d", req.Key, req.ID)
		set := tc.wrote[req.Key]
		if set == nil {
			set = make(map[uint64]bool)
			tc.wrote[req.Key] = set
		}
		set[req.ID] = true
	} else {
		line = fmt.Sprintf("GET k%d", req.Key)
	}
	if tc.cli == nil || tc.cli.sock == nil {
		tc.pending = append(tc.pending, line)
		return
	}
	tc.cli.send(line)
}

// flush drains sends buffered while the connection was still coming up.
func (tc *trafficConn) flush() {
	if tc.cli == nil || tc.cli.sock == nil {
		return
	}
	for _, line := range tc.pending {
		tc.cli.send(line)
	}
	tc.pending = nil
}

// load sums, across chains, the requests issued, those in flight, and
// those still queued client-side.
func (d *trafficDriver) load() (issued, outstanding, queued int) {
	for _, rep := range d.reps {
		issued += rep.Issued()
		outstanding += rep.Outstanding()
		queued += rep.QueuedClientSide()
	}
	return issued, outstanding, queued
}

// startTraffic builds every chain's replayer and connections, connects
// them before the first epoch boundary (as the writer does), and starts
// the replay at warmup — the instant the writer would have started.
func (c *campaign) startTraffic() {
	tr := c.cfg.Traffic
	d := &trafficDriver{judge: traffic.NewJudge(traffic.SLO{}), wrote: make(map[uint64]map[uint64]bool)}
	for g := 0; g < c.groups(); g++ {
		rep := traffic.NewReplayer(c.clock, tr, d.judge)
		conns := make([]*trafficConn, tr.Header.Clients)
		for i := range conns {
			conns[i] = &trafficConn{wrote: d.wrote}
			rep.SetConn(i, conns[i])
		}
		d.reps = append(d.reps, rep)
		d.conns = append(d.conns, conns)
	}
	c.traffic = d

	c.clock.Schedule(simtime.Millisecond, func() {
		for g, conns := range d.conns {
			for i, tc := range conns {
				rep, client := d.reps[g], i
				tc.cli = c.dial(g, c.clientIP(trafficClient, g, i))
				tc.cli.onReply = func(string) { rep.Completed(client) }
			}
		}
	})
	c.clock.Schedule(c.warmup, func() {
		start := c.clock.Now()
		for _, rep := range d.reps {
			rep.Start(start)
		}
	})
}

// Client roles, each with its own address plan (clientIP).
const (
	writerClient = iota
	trafficClient
	verifyClient
)

// clientIP is the LAN address of client i of chain g in a role. The
// single-chain and fleet plans differ; both are kept as they were so
// every trace stays put.
func (c *campaign) clientIP(role, g, i int) simnet.Addr {
	if c.pool != nil {
		switch role {
		case writerClient:
			return simnet.Addr(fmt.Sprintf("10.2.0.%d", g+1))
		case trafficClient:
			return simnet.Addr(fmt.Sprintf("10.3.%d.%d", g+1, i+1))
		}
		return simnet.Addr(fmt.Sprintf("10.4.0.%d", g+1))
	}
	switch role {
	case writerClient:
		return "10.0.0.1"
	case trafficClient:
		return simnet.Addr(fmt.Sprintf("10.0.%d.%d", 100+i/250, 1+i%250))
	}
	return "10.0.2.1"
}

// dial attaches a client at ip to the LAN and connects it to chain g's
// server.
func (c *campaign) dial(g int, ip simnet.Addr) *kvClient {
	if c.pool != nil {
		return newKVClient(c.pool.NewClient(ip), c.pool.Pairs[g].IP)
	}
	return newKVClient(c.repl.Cluster.NewClient(ip), "10.0.0.10")
}

// sampleTraffic is the oracle ticker's limiting-factor probe: flush any
// conn still buffering, then attribute one Factors sample to the
// current SLO window. Per-chain signals OR together — the SLO is judged
// across every chain.
func (c *campaign) sampleTraffic() {
	d := c.traffic
	for _, conns := range d.conns {
		for _, tc := range conns {
			tc.flush()
		}
	}

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

// verifyTrafficData is the traffic-mode acked-output oracle: on every
// chain, every key the replay ever SET must read back as v<id> for some
// id written to that key; (nil) or an unknown id means an acknowledged
// or retransmitted write was lost.
func (c *campaign) verifyTrafficData() {
	d := c.traffic
	if len(d.wrote) == 0 {
		return
	}
	if !c.cfg.Opts.PlugInput {
		c.verdicts = append(c.verdicts, firewallSkip("traffic-data"))
		return
	}
	c.clock.RunFor(2 * simtime.Second)

	keys := make([]uint64, 0, len(d.wrote))
	for k := range d.wrote {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	verifiers := make([]*kvClient, c.groups())
	for g := range verifiers {
		verifiers[g] = c.dial(g, c.clientIP(verifyClient, g, 0))
	}
	if c.pool != nil {
		c.clock.RunFor(200 * simtime.Millisecond)
	} else {
		for i := 0; i < 200 && verifiers[0].sock == nil; i++ {
			c.clock.RunFor(simtime.Millisecond)
		}
	}
	for _, k := range keys {
		for _, v := range verifiers {
			if v.sock != nil {
				v.send(fmt.Sprintf("GET k%d", k))
			}
		}
		c.clock.RunFor(2 * simtime.Millisecond)
	}
	pending := func() bool {
		for _, v := range verifiers {
			if v.sock != nil && len(v.replies) < len(keys) {
				return true
			}
		}
		return false
	}
	deadline := c.clock.Now().Add(c.convergeIn)
	for pending() && c.clock.Now() < deadline {
		c.clock.RunFor(10 * simtime.Millisecond)
	}

	ok := true
	detail := fmt.Sprintf("%d keys read back to a recorded write", len(keys))
	if c.pool != nil {
		detail = fmt.Sprintf("%d keys × %d pairs read back to recorded writes", len(keys), len(verifiers))
	}
	for g, v := range verifiers {
		switch {
		case v.sock == nil:
			ok, detail = false, c.who(g)+"verification connection never established"
		case len(v.replies) < len(keys):
			ok, detail = false, fmt.Sprintf("%sonly %d/%d read-backs arrived", c.who(g), len(v.replies), len(keys))
		}
		for i := 0; ok && i < len(keys); i++ {
			var id uint64
			if _, err := fmt.Sscanf(v.replies[i], "v%d", &id); err != nil || !d.wrote[keys[i]][id] {
				ok, detail = false, fmt.Sprintf("%sGET k%d = %q, not a recorded write", c.who(g), keys[i], v.replies[i])
			}
		}
		if !ok {
			break
		}
	}
	c.verdicts = append(c.verdicts, Verdict{Oracle: "traffic-data", OK: ok, Detail: detail})
}

// finishTraffic closes the SLO evaluation: emit the judged report and
// attribution as trace lines, and add the slo-windows oracle — every
// violation window must overlap a disruption span padded by sloSlack.
// The spans are the injected transient faults and
// each kill up to the drain of the client backlog it caused.
// Client-visible SLO damage outside every span means the pipeline
// itself (not the fault schedule) hurt clients, which is exactly what
// the oracle exists to catch.
func (c *campaign) finishTraffic() {
	d := c.traffic
	c.acked = d.judge.Completions()
	rep := d.judge.Finish(c.clock.Now())
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
