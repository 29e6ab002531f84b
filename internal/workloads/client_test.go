package workloads

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"strings"
	"testing"

	"nilicon/internal/core"
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
	"nilicon/internal/traffic"
)

func TestLoaderLoadsAllRecords(t *testing.T) {
	sv := Redis()
	clock := simtime.NewClock()
	cl := core.NewShardedCluster(clock, core.ClusterParams{})
	ctr := cl.NewProtectedContainer("kv", "10.0.0.10", 1)
	sv.Install(ctr)
	loader := NewLoader(cl, sv.Profile(), "10.0.0.10", 500)
	for i := 0; i < 2000 && !loader.Done(); i++ {
		clock.RunFor(5 * simtime.Millisecond)
	}
	if !loader.Done() {
		t.Fatalf("loader stuck at %d/500", loader.acked)
	}
	if got := len(sv.State().Keys); got != 500 {
		t.Fatalf("server has %d records, want 500", got)
	}
}

func TestKeyStripesDisjointAcrossKinds(t *testing.T) {
	// Batch clients draw from the lower half, probes from the upper
	// half; no writer shares a key with another writer.
	prof := Redis().Profile()
	cl := core.NewShardedCluster(simtime.NewClock(), core.ClusterParams{})
	batchSet := &ClientSet{cl: cl, prof: prof}
	probeSet := &ClientSet{cl: cl, prof: prof}
	mk := func(set *ClientSet, kind ClientKind, id int) *Client {
		c := &Client{set: set, kind: kind, id: id, rng: simtime.NewRand(int64(id) + 1), versions: map[uint64]uint32{}}
		set.Clients = append(set.Clients, c)
		return c
	}
	b0 := mk(batchSet, KVBatch, 0)
	p0 := mk(probeSet, KVProbe, 0)
	p1 := mk(probeSet, KVProbe, 1)
	half := uint64(prof.Records / 2)
	seen := map[uint64]int{}
	for i := 0; i < 2000; i++ {
		kb := b0.randKey()
		if kb >= half {
			t.Fatalf("batch key %d in probe range", kb)
		}
		k0, k1 := p0.randKey(), p1.randKey()
		if k0 < half || k1 < half {
			t.Fatalf("probe key below half: %d %d", k0, k1)
		}
		seen[k0] = 1
		if prev, ok := seen[k1]; ok && prev == 1 && k1 == k0 {
			t.Fatalf("probe stripes overlap at key %d", k1)
		}
	}
	// Distinct probe clients draw from disjoint stripes.
	stripe := uint64((prof.Records - prof.Records/2) / 2)
	for i := 0; i < 500; i++ {
		if k := p0.randKey(); k >= half+stripe {
			t.Fatalf("probe 0 escaped its stripe: %d", k)
		}
		if k := p1.randKey(); k < half+stripe {
			t.Fatalf("probe 1 escaped its stripe: %d", k)
		}
	}
}

func TestClientKindMapping(t *testing.T) {
	cases := map[string]ClientKind{
		"redis": KVBatch, "ssdb": KVBatch,
		"node": WebLoop, "lighttpd": WebLoop, "djcms": WebLoop,
		"net": EchoLoop, "netstress": EchoLoop,
	}
	for name, want := range cases {
		if got := ClientKindFor(name); got != want {
			t.Errorf("kind(%s) = %v, want %v", name, got, want)
		}
	}
}

func TestProbeClientVerifiesReads(t *testing.T) {
	sv := Redis()
	clock := simtime.NewClock()
	cl := core.NewShardedCluster(clock, core.ClusterParams{})
	ctr := cl.NewProtectedContainer("kv", "10.0.0.10", 1)
	sv.Install(ctr)
	set := NewClientSet(cl, sv.Profile(), "10.0.0.10", KVProbe, 2, 9)
	clock.RunFor(2 * simtime.Second)
	if set.Completed < 100 {
		t.Fatalf("probe completed = %d", set.Completed)
	}
	if len(set.Errors) != 0 {
		t.Fatalf("probe verification errors: %v", set.Errors[:min(3, len(set.Errors))])
	}
}

// TestClientSetCaptureRoundTrip: a uniform run recorded under capture
// mode produces a trace that encodes and re-parses with every request.
func TestClientSetCaptureRoundTrip(t *testing.T) {
	sv := Redis()
	clock := simtime.NewClock()
	cl := core.NewShardedCluster(clock, core.ClusterParams{})
	ctr := cl.NewProtectedContainer("kv", "10.0.0.10", 1)
	sv.Install(ctr)
	set := NewClientSet(cl, sv.Profile(), "10.0.0.10", KVProbe, 2, 9)
	set.Capture = traffic.NewRecorder("capture:redis", len(set.Clients), clock.Now())
	clock.RunFor(500 * simtime.Millisecond)

	tr, err := set.Capture.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header.Name != "capture:redis" || len(tr.Reqs) == 0 {
		t.Fatalf("capture header=%+v reqs=%d", tr.Header, len(tr.Reqs))
	}
	var buf strings.Builder
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := traffic.Parse(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("captured trace does not re-parse: %v", err)
	}
	if len(back.Reqs) != len(tr.Reqs) {
		t.Fatalf("round trip lost requests: %d vs %d", len(back.Reqs), len(tr.Reqs))
	}

}

// TestKVBatchClientAllocsBounded is the allocation guard for the KV
// request path: after warm-up, receiving a batch's replies, verifying
// them and issuing the replacement batch allocates a few objects at
// most, not one per request. The socket is closed, so Send drops the
// frames and only the client's own work is counted.
func TestKVBatchClientAllocsBounded(t *testing.T) {
	const maxAllocs = 8
	prof := Redis().Profile()
	prof.Records, prof.ZipfianKeys = 2000, false
	cl := core.NewShardedCluster(simtime.NewClock(), core.ClusterParams{})
	set := &ClientSet{cl: cl, prof: prof}
	c := &Client{set: set, kind: KVBatch, rng: simtime.NewRand(1), versions: map[uint64]uint32{}, sock: &simnet.Socket{}}
	set.Clients = append(set.Clients, c)
	for i := 0; i < prof.PipelineDepth; i++ {
		c.issue()
	}
	var allocs uint64
	for cycle := 0; cycle < 40; cycle++ {
		// The server's replies to the oldest batch, built before the
		// measurement.
		var replies []byte
		for _, o := range c.inflight.All()[:batchSize] {
			switch {
			case o.op == OpSet:
				replies = AppendFrame(replies, OpSet, okReply)
			case o.version != 0:
				replies = AppendFrame(replies, OpGet, ValueFor(o.key, o.version, recordSize))
			default:
				replies = AppendFrame(replies, OpGet, nil)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.receive(replies, nil)
		runtime.ReadMemStats(&after)
		// The first cycles are warm-up: every key gets written and
		// the buffers grow to size.
		if n := after.Mallocs - before.Mallocs; cycle >= 30 && n > allocs {
			allocs = n
		}
	}
	if len(set.Errors) > 0 || set.Completed != int64(40*batchSize) {
		t.Fatalf("%d replies completed, errors %v", set.Completed, set.Errors)
	}
	t.Logf("at most %d allocations per reply-and-reissue cycle", allocs)
	if allocs > maxAllocs {
		t.Errorf("a reply-and-reissue cycle allocated %d objects, want <= %d", allocs, maxAllocs)
	}
}

// TestFrameStreamAllocsBounded is the allocation guard for the byte
// path: a sender writes batches of 200-byte frames from one reused
// buffer through a switch to a receiver that reads with ReadAll and
// parses with a FrameReader. Send copies each batch once into the
// socket's send slab, the receiver's read queue is the delivered
// payload itself, and a frame split across two segments of one slab is
// read in place, so the whole path allocates only when a slab fills or
// a frame straddles two slabs: well under one object per frame.
func TestFrameStreamAllocsBounded(t *testing.T) {
	const (
		frameLen  = 200
		perBatch  = 10 // 2,000 bytes: frames straddle the MSS boundary
		maxAllocs = 0.1
	)
	clock := simtime.NewClock()
	sw := simnet.NewSwitch(clock, 100*simtime.Microsecond, 28*simtime.Millisecond)
	pa, pb := sw.Attach(), sw.Attach()
	a := simnet.NewStack(clock, "10.0.0.1", pa.Send)
	b := simnet.NewStack(clock, "10.0.0.2", pb.Send)
	pa.SetReceiver(a.Receive)
	pb.SetReceiver(b.Receive)
	sw.Learn(a.IP, pa)
	sw.Learn(b.IP, pb)

	var fr FrameReader
	frames, bad := 0, 0
	b.Listen(80, func(s *simnet.Socket) {
		s.OnData = func(s *simnet.Socket) {
			fr.Feed(s.ReadAll())
			for {
				op, p, ok := fr.Next()
				if !ok {
					break
				}
				if op != OpEcho || len(p) != frameLen-5 || p[0] != byte(frames) {
					bad++
				}
				frames++
			}
		}
	})
	var cl *simnet.Socket
	a.Connect(b.IP, 80, func(s *simnet.Socket) { cl = s })
	clock.Run()

	payload := make([]byte, frameLen-5)
	var out []byte
	sent := 0
	batch := func() {
		out = out[:0]
		for i := 0; i < perBatch; i++ {
			payload[0] = byte(sent)
			out = AppendFrame(out, OpEcho, payload)
			sent++
		}
		cl.Send(out)
		clock.RunFor(simtime.Millisecond)
	}
	for i := 0; i < 100; i++ { // warm-up: slabs and reader buffers grow
		batch()
	}
	const batches = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < batches; i++ {
		batch()
	}
	runtime.ReadMemStats(&after)
	perFrame := float64(after.Mallocs-before.Mallocs) / (batches * perBatch)
	if frames != sent || bad > 0 || fr.Buffered() != 0 {
		t.Fatalf("received %d of %d frames, %d wrong, %d bytes left buffered", frames, sent, bad, fr.Buffered())
	}
	t.Logf("%.3f allocations per frame", perFrame)
	if perFrame > maxAllocs {
		t.Errorf("the stream allocated %.3f objects per frame, want <= %.1f", perFrame, maxAllocs)
	}
}

// TestServerGetAllocsBounded guards the server's GET path: the record is
// read from the heap straight into the reply frame in the socket's send
// slab, and the client reads it in place, so a GET, reply delivery
// included, allocates nothing but a new slab every few dozen replies.
func TestServerGetAllocsBounded(t *testing.T) {
	prof := Redis().Profile()
	prof.MemPages, prof.Records = 64, 200
	sv := newStandaloneServer(prof)
	key := binary.BigEndian.AppendUint64(nil, 42)
	want := ValueFor(42, 1, recordSize)
	sv.process(sv.workers[0], pendingReq{Op: OpSet, Payload: append(key, want...)})
	var got []byte
	allocs := testing.AllocsPerRun(100, func() { got = sv.get(42) })
	if errs := sv.AppErrors(); len(errs) > 0 || !bytes.Equal(got, want) {
		t.Fatalf("GET replied %d bytes, want the stored record (errors %v)", len(got), errs)
	}
	t.Logf("%.0f allocations per GET", allocs)
	if allocs > 0 {
		t.Errorf("a GET allocated %.0f objects, want 0", allocs)
	}
}

// TestConnFlagsProtocolViolations: a Conn records a reply whose op is not
// its request's, and a reply with nothing in flight, as errors — the
// traffic verifier's evidence of a server that answers out of turn.
func TestConnFlagsProtocolViolations(t *testing.T) {
	clock := simtime.NewClock()
	sw := simnet.NewSwitch(clock, 100*simtime.Microsecond, 28*simtime.Millisecond)
	pa, pb := sw.Attach(), sw.Attach()
	a := simnet.NewStack(clock, "10.0.0.1", pa.Send)
	b := simnet.NewStack(clock, "10.0.0.2", pb.Send)
	pa.SetReceiver(a.Receive)
	pb.SetReceiver(b.Receive)
	sw.Learn(a.IP, pa)
	sw.Learn(b.IP, pb)
	// The server answers every request with a GET reply, then sends one
	// reply more.
	b.Listen(80, func(s *simnet.Socket) {
		s.OnData = func(s *simnet.Socket) {
			s.ReadAll()
			s.Send(AppendFrame(AppendFrame(nil, OpGet, nil), OpGet, nil))
		}
	})
	c := Dial(a, b.IP, 80)
	var replies []traffic.Request
	c.OnReply = func(req traffic.Request, _ []byte) { replies = append(replies, req) }
	c.Send(traffic.Request{ID: 1, Op: traffic.OpSet, Key: 7, Size: 64})
	clock.RunFor(100 * simtime.Millisecond)

	want := []string{`reply op 'G' to set of key 7`, `reply op 'G' with nothing in flight`}
	if !slices.Equal(c.Errors, want) {
		t.Fatalf("Errors = %q, want %q", c.Errors, want)
	}
	if len(replies) != 1 || replies[0].ID != 1 || len(c.InFlight()) != 0 {
		t.Fatalf("replies %v, in flight %v: want request 1 answered", replies, c.InFlight())
	}
}

// TestKVBatchKeysWithMoreClientsThanKeys: with more batch clients than
// half the keyspace (niliconctl's -clients allows it), each client's
// stripe is one key: client i always draws key i.
func TestKVBatchKeysWithMoreClientsThanKeys(t *testing.T) {
	prof := Redis().Profile()
	prof.Records, prof.ZipfianKeys = 4, false
	set := &ClientSet{prof: prof}
	for i := 0; i < 3; i++ {
		set.Clients = append(set.Clients, &Client{set: set, kind: KVBatch, id: i, rng: simtime.NewRand(int64(i) + 1)})
	}
	for _, c := range set.Clients {
		for range 10 {
			if k := c.randKey(); k != uint64(c.id) {
				t.Fatalf("client %d drew key %d", c.id, k)
			}
		}
	}
}
