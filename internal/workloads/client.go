package workloads

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"

	"nilicon/internal/core"
	"nilicon/internal/metrics"
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
	"nilicon/internal/traffic"
)

// ClientKind selects the driving pattern.
type ClientKind int

// Client kinds.
const (
	// KVBatch is the paper's custom Redis/SSDB client: batches of
	// BatchSize requests, 50% reads / 50% writes, YCSB-style keyspace.
	KVBatch ClientKind = iota
	// WebLoop is a SIEGE-style closed-loop client: one request
	// outstanding, immediately re-issued.
	WebLoop
	// EchoLoop sends random-size echo payloads and verifies them.
	EchoLoop
	// KVProbe sends a single get or set at a time (the recovery-latency
	// probe clients of §VII-B).
	KVProbe
)

// outstanding tracks one in-flight request and its expected reply.
type outstanding struct {
	op       byte
	sentAt   simtime.Time
	expected []byte // nil → don't verify content, unless version is set
	key      uint64
	// version, when nonzero, is the version of key a read must return:
	// the reply is checked against ValueFor(key, version), regenerated
	// on arrival rather than held while the request is in flight.
	version uint32
}

// okReply is the server's reply to a write.
var okReply = []byte("OK")

// Client is one closed-loop load generator.
type Client struct {
	set  *ClientSet
	kind ClientKind
	id   int
	rng  *rand.Rand
	zipf *rand.Zipf

	stack *simnet.Stack
	sock  *simnet.Socket
	fr    FrameReader

	// inflight[head:] are the requests awaiting replies, oldest first.
	inflight  []outstanding
	head      int
	respCount int

	// out and scratch are reused across requests: out holds the frames
	// one issue call sends (Socket.Send copies it), scratch a write's
	// payload or a read's expected value.
	out     []byte
	scratch []byte

	// versions tracks the last value version written per key, in stream
	// order, to derive the expected value of subsequent reads.
	versions map[uint64]uint32

	echoMax int
}

// ClientSet aggregates a benchmark's clients.
type ClientSet struct {
	cl        *core.Cluster
	prof      Profile
	serverIP  simnet.Addr
	Clients   []*Client
	Completed int64
	Errors    []string
	Resets    int
	Latencies metrics.Stream // seconds, per request (per batch for KVBatch)

	// Capture, when set, records every issued request into a replayable
	// traffic trace (niliconctl traffic -capture).
	Capture *traffic.Recorder

	// windowStart/windowCount implement throughput windows.
	windowStart simtime.Time
	windowCount int64
}

// NewClientSet starts n clients of the given kind against serverIP.
func NewClientSet(cl *core.Cluster, prof Profile, serverIP simnet.Addr, kind ClientKind, n int, seed int64) *ClientSet {
	set := &ClientSet{cl: cl, prof: prof, serverIP: serverIP}
	for i := 0; i < n; i++ {
		c := &Client{
			set:      set,
			kind:     kind,
			id:       i,
			rng:      simtime.NewRand(seed + int64(i)*7919),
			versions: make(map[uint64]uint32),
			echoMax:  256 << 10,
		}
		if prof.EchoMaxBytes > 0 {
			c.echoMax = prof.EchoMaxBytes
		}
		c.stack = cl.NewClient(simnet.Addr(fmt.Sprintf("10.1.%d.%d", i/250, i%250+1)))
		set.Clients = append(set.Clients, c)
		c.connect()
	}
	return set
}

func (c *Client) connect() {
	c.stack.Connect(c.set.serverIP, c.set.prof.Port, func(s *simnet.Socket) {
		c.sock = s
		s.OnData = c.onData
		s.OnReset = func(*simnet.Socket) { c.set.Resets++ }
		if c.kind == KVBatch {
			depth := c.set.prof.PipelineDepth
			if depth <= 0 {
				depth = 1
			}
			for i := 0; i < depth; i++ {
				c.issue()
			}
			return
		}
		c.issue()
	})
}

// randKey draws a key from the client's private stripe of the keyspace.
// KV writers must not share keys: the server stores the last write, so
// a reader that did not issue it could not predict the content. Batched
// clients own the lower half of the keyspace, probe clients the upper
// half, each striped by client index. (The preloader writes version 1
// of every key, which clients simply never verify against.)
func (c *Client) randKey() uint64 {
	rec := max(1, c.set.prof.Records)
	half := rec / 2
	n := len(c.set.Clients)
	if n < 1 {
		n = 1
	}
	var lo, stripe int
	switch c.kind {
	case KVProbe:
		stripe = (rec - half) / n
		if stripe < 1 {
			stripe = 1
		}
		lo = half + c.id%n*stripe
	default:
		stripe = half / n
		if stripe < 1 {
			stripe = 1
		}
		lo = c.id % n * stripe
	}
	if c.set.prof.ZipfianKeys {
		if c.zipf == nil {
			// YCSB-style skew: a handful of hot keys dominate.
			c.zipf = rand.NewZipf(c.rng, 1.1, 1, uint64(stripe-1))
		}
		return uint64(lo) + c.zipf.Uint64()
	}
	return uint64(lo + c.rng.Intn(stripe))
}

// record captures one issued request into the set's trace recorder, if
// capture mode is on.
func (set *ClientSet) record(now simtime.Time, client int, op string, key uint64, size int) {
	if set.Capture != nil {
		set.Capture.Record(now, client, op, key, size)
	}
}

// issue sends the next request(s) according to the client kind.
func (c *Client) issue() {
	switch c.kind {
	case KVBatch:
		batch := c.set.prof.BatchSize
		if batch <= 0 {
			batch = 1000
		}
		c.out = c.out[:0]
		now := c.set.cl.Clock.Now()
		for i := 0; i < batch; i++ {
			c.appendKV(now, c.randKey(), i%2 == 0)
		}
		c.sock.Send(c.out)
	case KVProbe:
		key := c.randKey()
		c.out = c.out[:0]
		c.appendKV(c.set.cl.Clock.Now(), key, c.rng.Intn(2) == 0)
		c.sock.Send(c.out)
	case WebLoop:
		pathID := uint32(c.rng.Intn(512))
		var p [4]byte
		binary.BigEndian.PutUint32(p[:], pathID)
		// Web/echo loops capture as gets keyed by path: the trace format
		// is kv-shaped, so a replay drives the page set as reads.
		c.set.record(c.set.cl.Clock.Now(), c.id, traffic.OpGet, uint64(pathID), c.set.prof.RespKB<<10)
		c.sock.Send(Frame(OpWeb, p[:]))
		c.push(outstanding{
			op: OpWeb, sentAt: c.set.cl.Clock.Now(),
			expected: PageFor(pathID, c.set.prof.RespKB<<10),
		})
	case EchoLoop:
		size := c.echoMax
		if size > 1 {
			size = 1 + c.rng.Intn(c.echoMax)
		}
		payload := make([]byte, size)
		c.rng.Read(payload)
		c.set.record(c.set.cl.Clock.Now(), c.id, traffic.OpSet, uint64(c.id), size)
		c.sock.Send(Frame(OpEcho, payload))
		c.push(outstanding{op: OpEcho, sentAt: c.set.cl.Clock.Now(), expected: payload})
	}
}

// appendKV appends one write (a new version of key) or read of key to
// c.out and queues its expected reply.
func (c *Client) appendKV(now simtime.Time, key uint64, write bool) {
	if write {
		v := c.versions[key] + 1
		c.versions[key] = v
		c.scratch = appendValue(binary.BigEndian.AppendUint64(c.scratch[:0], key), key, v, recordSize)
		c.out = AppendFrame(c.out, OpSet, c.scratch)
		c.push(outstanding{op: OpSet, sentAt: now, expected: okReply, key: key})
		c.set.record(now, c.id, traffic.OpSet, key, recordSize)
		return
	}
	c.out = AppendFrame(c.out, OpGet, binary.BigEndian.AppendUint64(c.scratch[:0], key))
	c.push(outstanding{op: OpGet, sentAt: now, key: key, version: c.versions[key]})
	c.set.record(now, c.id, traffic.OpGet, key, 0)
}

// push queues an in-flight request. A full queue first moves its live
// tail to the front, so the backing array is reused rather than regrown.
func (c *Client) push(o outstanding) {
	if c.head > 0 && len(c.inflight) == cap(c.inflight) {
		n := copy(c.inflight, c.inflight[c.head:])
		c.inflight, c.head = c.inflight[:n], 0
	}
	c.inflight = append(c.inflight, o)
}

func (c *Client) onData(s *simnet.Socket) { c.receive(s.ReadAll()) }

// receive consumes reply bytes from the server; the client takes
// ownership of b.
func (c *Client) receive(b []byte) {
	c.fr.Feed(b)
	for {
		op, payload, ok := c.fr.Next()
		if !ok {
			return
		}
		if len(c.inflight) == 0 {
			c.set.fail(fmt.Sprintf("client %d: unexpected response op %q", c.id, op))
			continue
		}
		exp := c.inflight[c.head]
		c.head++
		if c.head == len(c.inflight) {
			c.inflight, c.head = c.inflight[:0], 0
		}
		want := exp.expected
		if exp.version != 0 {
			c.scratch = appendValue(c.scratch[:0], exp.key, exp.version, recordSize)
			want = c.scratch
		}
		if op != exp.op {
			c.set.fail(fmt.Sprintf("client %d: response op %q for request %q", c.id, op, exp.op))
		} else if want != nil && !bytes.Equal(payload, want) {
			c.set.fail(fmt.Sprintf("client %d: wrong content for op %q key %d (%dB vs %dB expected)",
				c.id, exp.op, exp.key, len(payload), len(want)))
		}
		c.set.Completed++
		c.set.windowCount++
		c.respCount++
		if c.kind == KVBatch {
			// Pipelined batches: issue a replacement batch whenever a
			// full batch's worth of responses has arrived.
			batch := c.set.prof.BatchSize
			if batch <= 0 {
				batch = 1000
			}
			if c.respCount%batch == 0 {
				c.set.Latencies.Add(c.set.cl.Clock.Now().Sub(exp.sentAt).Seconds())
				c.issue()
			}
			continue
		}
		if len(c.inflight) == 0 {
			// Closed loop: one request outstanding at a time.
			c.set.Latencies.Add(c.set.cl.Clock.Now().Sub(exp.sentAt).Seconds())
			c.issue()
		}
	}
}

func (set *ClientSet) fail(msg string) { set.Errors = append(set.Errors, msg) }

// BeginWindow starts a throughput measurement window.
func (set *ClientSet) BeginWindow() {
	set.windowStart = set.cl.Clock.Now()
	set.windowCount = 0
}

// WindowThroughput returns completed requests per second since
// BeginWindow.
func (set *ClientSet) WindowThroughput() float64 {
	el := set.cl.Clock.Now().Sub(set.windowStart).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(set.windowCount) / el
}

// ValidationErrors returns all client-observed errors (content
// mismatches, protocol violations) — the §VII-A pass/fail signal,
// together with Resets.
func (set *ClientSet) ValidationErrors() []string { return set.Errors }

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
