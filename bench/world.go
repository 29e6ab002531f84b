package main

import (
	"encoding/binary"
	"fmt"

	"nilicon/internal/container"
	"nilicon/internal/core"
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
	"nilicon/internal/traffic"
	"nilicon/internal/workloads"
)

// serverIP is the protected container's address in every pair world.
const serverIP = "10.0.0.10"

// pairWorld is one primary/backup deployment of a server workload: the
// paper's two-host testbed (§VI) on the sharded engine at one lane, so a
// world runs on a single simulation goroutine in ladder mode.
type pairWorld struct {
	sc   *simtime.ShardedClock
	cl   *core.Cluster
	ctr  *container.Container
	srv  *workloads.Server
	repl *core.Replicator // nil for the unreplicated (Stock) run
	// restored is the server instance a failover rebuilt on the backup.
	restored *workloads.Server
}

// newPairWorld builds the topology, installs the server and, when cfg is
// non-nil, starts replication with the profile's calibrated residuals
// (the same derivation the paper experiments use). mk must return a
// fresh server each call: failover reattaches a new instance because
// the fail-stopped primary may still be running the old one.
func newPairWorld(mk func() *workloads.Server, cfg *core.Config) *pairWorld {
	sc := simtime.NewShardedClock(1)
	cl := core.NewShardedCluster(sc, core.ClusterParams{})
	srv := mk()
	prof := srv.Profile()
	ctr := cl.NewProtectedContainer(prof.Name, serverIP, max(1, prof.Procs*prof.ThreadsPer))
	srv.Install(ctr)
	w := &pairWorld{sc: sc, cl: cl, ctr: ctr, srv: srv}
	if cfg != nil {
		c := *cfg
		c.ExtraStopPerCheckpoint = prof.TotalExtraStop()
		c.RuntimeTaxPerEpoch = prof.RuntimeTax
		c.Reattach = func(rc core.RestoredContainer, state any) {
			fresh := mk()
			// A failed reattach is also recorded in the fresh server's own
			// error list, which appErrors reads.
			_ = fresh.Reattach(rc, state)
			w.restored = fresh
		}
		w.repl = core.NewReplicator(cl, ctr, c)
		w.repl.Start()
	}
	return w
}

func (w *pairWorld) now() simtime.Time { return w.sc.Now() }

// epochOffset is a seeded instant within one epoch. Measured windows and
// faults start that far past a round time, so their phase against the
// epoch boundaries, and with it every windowed count, varies by seed.
func epochOffset(seed int64) simtime.Duration {
	return simtime.Duration(simtime.NewRand(seed).Int63n(int64(core.DefaultConfig().EpochInterval)))
}

// appErrors returns every server-side validation failure, on the
// original primary and on the instance a failover restored.
func (w *pairWorld) appErrors() int {
	n := len(w.srv.AppErrors())
	if w.restored != nil {
		n += len(w.restored.AppErrors())
	}
	return n
}

// wireBytes is what the replication link carried so far.
func (w *pairWorld) wireBytes() int64 {
	if w.repl == nil {
		return 0
	}
	return w.cl.ReplLink.BytesSent()
}

// kvProfile is the bench-defined small key-value server used by
// kv-replay (pages=2048, records=4096) and, scaled down, by every fleet
// chain: one single-threaded process, 30 µs of CPU per request and two
// heap pages dirtied per SET beyond the record itself.
func kvProfile(pages, records int) workloads.Profile {
	return workloads.Profile{
		Name: "kv", Procs: 1, ThreadsPer: 1, LibsPerProc: 2,
		MemPages: pages, Port: 6380,
		ReqCPU: 30 * simtime.Microsecond, ReqDirty: 2,
		Records: records,
	}
}

// openLoop replays a synthesized trace open-loop against one kv server
// through traffic.Replayer. Besides feeding the replayer's SLO judge it
// keeps, per request, when it was due and when its reply arrived, and it
// validates every reply: the op must match the request's, and a GET must
// return either nothing or a value some issued SET wrote to that key.
type openLoop struct {
	clock *simtime.Clock
	tr    *traffic.Trace
	rep   *traffic.Replayer
	judge *traffic.Judge
	conns []*olConn
	start simtime.Time

	// done[i] is when request ID i+1 completed (0: not yet).
	done []simtime.Time
	// sets maps a SET's request ID to the key it wrote.
	sets map[uint32]uint64

	errors []string
	resets int
}

// olConn is one replayed client connection.
type olConn struct {
	ol       *openLoop
	idx      int
	sock     *simnet.Socket
	fr       workloads.FrameReader
	queued   [][]byte          // frames issued before the connect completed
	inflight []traffic.Request // FIFO: replies arrive in request order
}

// newOpenLoop connects one client stack per trace client to the server
// at addr:port. attach creates a client stack on the world's LAN; ipBase
// is the client address prefix ("10.2.0." gives 10.2.0.1, 10.2.0.2, ...).
func newOpenLoop(clock *simtime.Clock, attach func(simnet.Addr) *simnet.Stack, addr simnet.Addr, port int, tr *traffic.Trace, ipBase string) *openLoop {
	ol := &openLoop{
		clock: clock,
		tr:    tr,
		judge: traffic.NewJudge(traffic.SLO{}),
		done:  make([]simtime.Time, len(tr.Reqs)),
		sets:  make(map[uint32]uint64),
	}
	ol.rep = traffic.NewReplayer(clock, tr, ol.judge)
	for i := 0; i < tr.Header.Clients; i++ {
		c := &olConn{ol: ol, idx: i}
		ol.conns = append(ol.conns, c)
		ol.rep.SetConn(i, c)
		st := attach(simnet.Addr(fmt.Sprintf("%s%d", ipBase, i+1)))
		st.Connect(addr, port, func(s *simnet.Socket) {
			c.sock = s
			s.OnData = c.onData
			s.OnReset = func(*simnet.Socket) { ol.resets++ }
			for _, f := range c.queued {
				s.Send(f)
			}
			c.queued = nil
		})
	}
	return ol
}

// Start fires the trace's arrivals from t.
func (ol *openLoop) Start(t simtime.Time) {
	ol.start = t
	ol.rep.Start(t)
}

// due returns when request index i was due.
func (ol *openLoop) due(i int) simtime.Time {
	return ol.start.Add(simtime.Duration(ol.tr.Reqs[i].At))
}

// Send implements traffic.Conn. Values derive from (key, request ID) so
// a GET reply names the SET that wrote it.
func (c *olConn) Send(req traffic.Request) {
	var frame []byte
	if req.Op == traffic.OpSet {
		c.ol.sets[uint32(req.ID)] = req.Key
		frame = workloads.Frame(workloads.OpSet, append(workloads.KeyBytes(req.Key), workloads.ValueFor(req.Key, uint32(req.ID), req.Size)...))
	} else {
		frame = workloads.Frame(workloads.OpGet, workloads.KeyBytes(req.Key))
	}
	c.inflight = append(c.inflight, req)
	if c.sock == nil {
		c.queued = append(c.queued, frame)
		return
	}
	c.sock.Send(frame)
}

func (c *olConn) onData(s *simnet.Socket) {
	c.fr.Feed(s.ReadAll())
	for {
		op, payload, ok := c.fr.Next()
		if !ok {
			return
		}
		if len(c.inflight) == 0 {
			c.ol.fail("client %d: reply op %q with nothing in flight", c.idx, op)
			continue
		}
		req := c.inflight[0]
		c.inflight = c.inflight[1:]
		if err := c.ol.check(req, op, payload); err != "" {
			c.ol.fail("client %d: %s", c.idx, err)
		}
		if req.ID >= 1 && int(req.ID) <= len(c.ol.done) {
			c.ol.done[req.ID-1] = c.ol.clock.Now()
		}
		c.ol.rep.Completed(c.idx)
	}
}

// check validates one reply against its request ("" when valid).
func (ol *openLoop) check(req traffic.Request, op byte, payload []byte) string {
	want := workloads.OpGet
	if req.Op == traffic.OpSet {
		want = workloads.OpSet
	}
	if op != want {
		return fmt.Sprintf("reply op %q for request %d op %s", op, req.ID, req.Op)
	}
	if op != workloads.OpGet || len(payload) == 0 {
		return ""
	}
	key, id, ok := decodeValue(payload)
	if !ok || key != req.Key || ol.sets[id] != key {
		return fmt.Sprintf("GET key %d returned a value no issued SET wrote", req.Key)
	}
	return ""
}

// decodeValue recovers (key, version) from a stored value: ValueFor XORs
// a fixed pattern over the 12-byte seed key||version and repeats it, so
// the first 12 bytes invert to the seed and the rest must match.
func decodeValue(v []byte) (key uint64, version uint32, ok bool) {
	const seedLen = 12
	if len(v) < seedLen {
		return 0, 0, false
	}
	var seed [seedLen]byte
	for i := range seed {
		seed[i] = v[i] ^ byte(i*131>>3)
	}
	key = binary.BigEndian.Uint64(seed[:8])
	version = binary.BigEndian.Uint32(seed[8:])
	// Only the written prefix is the value; the record tail is whatever
	// the slot held before. Every SET here writes the trace's size.
	n := min(len(v), valueSize)
	ref := workloads.ValueFor(key, version, n)
	for i := 0; i < n; i++ {
		if v[i] != ref[i] {
			return 0, 0, false
		}
	}
	return key, version, true
}

func (ol *openLoop) fail(format string, args ...any) {
	ol.errors = append(ol.errors, fmt.Sprintf(format, args...))
}

// window summarizes the requests due in [from, to): latencies measured
// from each request's due instant, and how many were still unanswered
// at cap.
type window struct {
	lat       []float64 // ms, completed requests
	attempted int
	missing   int
}

func (ol *openLoop) window(from, to, cap simtime.Time) window {
	var w window
	for i := range ol.tr.Reqs {
		d := ol.due(i)
		if d < from || d >= to {
			continue
		}
		w.attempted++
		if c := ol.done[i]; c == 0 || c > cap {
			w.missing++
		} else {
			w.lat = append(w.lat, c.Sub(d).Seconds()*1000)
		}
	}
	return w
}

// outageMs is the stream's client-observed outage after the fault.
func (ol *openLoop) outageMs(fault, end simtime.Time) float64 {
	due := make([]int64, len(ol.tr.Reqs))
	done := make([]int64, len(ol.tr.Reqs))
	for i := range ol.tr.Reqs {
		due[i], done[i] = int64(ol.due(i)), int64(ol.done[i])
	}
	return float64(outageFrom(int64(fault), due, done, int64(end))) / 1e6
}

// outageFrom is the client-observed outage after instant at: the time
// from at to the first completion of a request due at or after at.
// Requests never completed count as completing at cap, which caps the
// outage at the observation window.
func outageFrom(at int64, due, done []int64, cap int64) int64 {
	first := cap
	for i, d := range due {
		if d < at {
			continue
		}
		if c := done[i]; c > 0 && c < first {
			first = c
		}
	}
	if first < at {
		return 0
	}
	return first - at
}
