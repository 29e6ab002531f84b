package workloads

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"

	"nilicon/internal/core"
	"nilicon/internal/fifo"
	"nilicon/internal/metrics"
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
	"nilicon/internal/traffic"
)

// ClientKind selects the driving pattern.
type ClientKind int

// batchSize is how many requests a KVBatch client sends per batch
// (the paper's Redis/SSDB client: 1000).
const batchSize = 1000

// Client kinds.
const (
	// KVBatch is the paper's custom Redis/SSDB client: batches of
	// batchSize requests, 50% reads / 50% writes, YCSB-style keyspace.
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

// outstanding tracks one in-flight request. It holds no reply bytes:
// expect derives the reply from key, version and size when it arrives.
type outstanding struct {
	op     byte
	sentAt simtime.Time
	// key is a KV request's key, a web request's path id, or an echo's
	// client id. version, when nonzero, is the version of key a read
	// must return, or an echo's per-client sequence number; a read with
	// version 0 is not verified.
	key     uint64
	version uint32
	size    int
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

	inflight  fifo.Queue[outstanding]
	respCount int

	// scratch is reused across replies: it holds a reply's expected
	// value. Requests are written straight into the socket's send slab.
	scratch []byte

	// versions tracks the last value version written per key, in stream
	// order, to derive the expected value of subsequent reads.
	versions map[uint64]uint32

	// echoSeq numbers the client's echoes: each payload is
	// ValueFor(id, echoSeq, size).
	echoSeq uint32
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
			for i := 0; i < c.set.prof.PipelineDepth; i++ {
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
	var lo, stripe int
	switch c.kind {
	case KVProbe:
		// Probe sets are a handful of clients, so each has a stripe.
		stripe = (rec - half) / n
		lo = half + c.id%n*stripe
	default:
		// niliconctl's -clients can exceed half the keyspace.
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
		// Even requests write, odd ones read: the slab is sized exactly
		// for the batch's frames.
		writes := (batchSize + 1) / 2
		buf := c.sock.SendBuffer(writes*frameLen(8+recordSize) + (batchSize-writes)*frameLen(8))
		now := c.set.cl.Clock.Now()
		for i := 0; i < batchSize; i++ {
			buf = c.appendKV(buf, now, c.randKey(), i%2 == 0)
		}
		c.sock.Send(buf)
	case KVProbe:
		key := c.randKey()
		buf := c.sock.SendBuffer(frameLen(8 + recordSize))
		c.sock.Send(c.appendKV(buf, c.set.cl.Clock.Now(), key, c.rng.Intn(2) == 0))
	case WebLoop:
		pathID := uint32(c.rng.Intn(512))
		now := c.set.cl.Clock.Now()
		// Web/echo loops capture as gets keyed by path: the trace format
		// is kv-shaped, so a replay drives the page set as reads.
		c.set.record(now, c.id, traffic.OpGet, uint64(pathID), c.set.prof.RespKB<<10)
		buf := appendFrameHeader(c.sock.SendBuffer(frameLen(4)), OpWeb, 4)
		c.sock.Send(binary.BigEndian.AppendUint32(buf, pathID))
		c.inflight.Push(outstanding{op: OpWeb, sentAt: now, key: uint64(pathID), size: c.set.prof.RespKB << 10})
	case EchoLoop:
		size := c.echoMax
		if size > 1 {
			size = 1 + c.rng.Intn(c.echoMax)
		}
		c.echoSeq++
		now := c.set.cl.Clock.Now()
		c.set.record(now, c.id, traffic.OpSet, uint64(c.id), size)
		buf := appendFrameHeader(c.sock.SendBuffer(frameLen(size)), OpEcho, size)
		c.sock.Send(appendValue(buf, uint64(c.id), c.echoSeq, size))
		c.inflight.Push(outstanding{op: OpEcho, sentAt: now, key: uint64(c.id), version: c.echoSeq, size: size})
	}
}

// expect derives the reply o must receive: OK for a write, the shared
// page for a web request, and ValueFor(key, version, size), regenerated
// into c.scratch, for a read or an echo. It returns nil for a read with
// no version, which is not verified.
func (c *Client) expect(o outstanding) []byte {
	switch {
	case o.op == OpSet:
		return okReply
	case o.op == OpWeb:
		return PageFor(uint32(o.key), o.size)
	case o.version == 0:
		return nil
	}
	c.scratch = appendValue(c.scratch[:0], o.key, o.version, o.size)
	return c.scratch
}

// appendKV appends the frame of one write (a new version of key) or read
// of key to dst, queues the request and returns the extended slice.
func (c *Client) appendKV(dst []byte, now simtime.Time, key uint64, write bool) []byte {
	if write {
		v := c.versions[key] + 1
		c.versions[key] = v
		c.inflight.Push(outstanding{op: OpSet, sentAt: now, key: key})
		c.set.record(now, c.id, traffic.OpSet, key, recordSize)
		return appendSet(dst, key, v, recordSize)
	}
	c.inflight.Push(outstanding{op: OpGet, sentAt: now, key: key, version: c.versions[key], size: recordSize})
	c.set.record(now, c.id, traffic.OpGet, key, 0)
	return appendGet(dst, key)
}

// appendSet appends the frame of a SET of key to ValueFor(key, version,
// size) to dst and returns the extended slice.
func appendSet(dst []byte, key uint64, version uint32, size int) []byte {
	dst = binary.BigEndian.AppendUint64(appendFrameHeader(dst, OpSet, 8+size), key)
	return appendValue(dst, key, version, size)
}

// appendGet appends the frame of a GET of key to dst and returns the
// extended slice.
func appendGet(dst []byte, key uint64) []byte {
	return binary.BigEndian.AppendUint64(appendFrameHeader(dst, OpGet, 8), key)
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
		if c.inflight.Len() == 0 {
			c.set.fail(fmt.Sprintf("client %d: unexpected response op %q", c.id, op))
			continue
		}
		exp := c.inflight.Pop()
		if op != exp.op {
			c.set.fail(fmt.Sprintf("client %d: response op %q for request %q", c.id, op, exp.op))
		} else if want := c.expect(exp); want != nil && !bytes.Equal(payload, want) {
			c.set.fail(fmt.Sprintf("client %d: wrong content for op %q key %d (%dB vs %dB expected)",
				c.id, exp.op, exp.key, len(payload), len(want)))
		}
		c.set.Completed++
		c.set.windowCount++
		c.respCount++
		if c.kind == KVBatch {
			// Pipelined batches: issue a replacement batch whenever a
			// full batch's worth of responses has arrived.
			if c.respCount%batchSize == 0 {
				c.set.Latencies.Add(c.set.cl.Clock.Now().Sub(exp.sentAt).Seconds())
				c.issue()
			}
			continue
		}
		if c.inflight.Len() == 0 {
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

// Conn is one open-loop client connection to a KV server. It implements
// traffic.Conn, so a traffic.Replayer drives it, and its Send serves
// direct reads too. Requests sent before the TCP handshake completes
// queue and go out when it does. Replies arrive in request order (TCP
// FIFO), so Conn keeps the requests in flight oldest first and checks
// each reply's op against its request's.
type Conn struct {
	// OnReply, when set, sees every reply matched to its request, at its
	// virtual arrival instant. The payload aliases the stream and is
	// never written again (FrameReader's ownership rule).
	OnReply func(req traffic.Request, payload []byte)
	// Errors lists protocol violations: a reply whose op is not its
	// request's, or a reply with nothing in flight.
	Errors []string

	sock     *simnet.Socket
	fr       FrameReader
	queued   []byte // frames sent before the handshake completed
	inflight fifo.Queue[traffic.Request]
}

// Dial connects a Conn from the client stack st to the server at
// addr:port.
func Dial(st *simnet.Stack, addr simnet.Addr, port int) *Conn {
	c := &Conn{}
	st.Connect(addr, port, func(s *simnet.Socket) {
		c.sock = s
		s.OnData = c.onData
		if len(c.queued) > 0 {
			s.Send(c.queued)
			c.queued = nil
		}
	})
	return c
}

// Connected reports whether the handshake has completed.
func (c *Conn) Connected() bool { return c.sock != nil }

// InFlight returns the requests still awaiting replies, oldest first.
// The slice is valid until the next Send or reply.
func (c *Conn) InFlight() []traffic.Request { return c.inflight.All() }

// Send implements traffic.Conn. A SET writes ValueFor(key, request ID,
// size), so a read names the write it returns; its size is the
// request's, kept between the value's 12-byte seed and one record.
func (c *Conn) Send(req traffic.Request) {
	c.inflight.Push(req)
	if c.sock == nil {
		c.queued = appendRequest(c.queued, req)
		return
	}
	c.sock.Send(appendRequest(c.sock.SendBuffer(frameLen(8+recordSize)), req))
}

// appendRequest appends req's frame to dst and returns the extended
// slice.
func appendRequest(dst []byte, req traffic.Request) []byte {
	if req.Op != traffic.OpSet {
		return appendGet(dst, req.Key)
	}
	return appendSet(dst, req.Key, uint32(req.ID), min(max(req.Size, valueSeedLen), recordSize))
}

// wireOp is the frame op of a trace request.
func wireOp(req traffic.Request) byte {
	if req.Op == traffic.OpSet {
		return OpSet
	}
	return OpGet
}

func (c *Conn) onData(s *simnet.Socket) {
	c.fr.Feed(s.ReadAll())
	for {
		op, payload, ok := c.fr.Next()
		if !ok {
			return
		}
		if c.inflight.Len() == 0 {
			c.Errors = append(c.Errors, fmt.Sprintf("reply op %q with nothing in flight", op))
			continue
		}
		req := c.inflight.Pop()
		if op != wireOp(req) {
			c.Errors = append(c.Errors, fmt.Sprintf("reply op %q to %s of key %d", op, req.Op, req.Key))
		}
		if c.OnReply != nil {
			c.OnReply(req, payload)
		}
	}
}
