package workloads

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"nilicon/internal/container"
	"nilicon/internal/core"
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
	"nilicon/internal/traffic"
)

func TestLoaderLoadsAllRecords(t *testing.T) {
	sv := Redis()
	sc := simtime.NewEngine()
	clock := sc.Root()
	cl := core.NewShardedCluster(sc, core.ClusterParams{})
	ctr := cl.NewProtectedContainer("kv", "10.0.0.10", 1)
	sv.Install(ctr)
	loader := NewLoader(cl, sv.Profile(), "10.0.0.10", 500)
	for i := 0; i < 2000 && !loader.Done(); i++ {
		clock.RunFor(5 * simtime.Millisecond)
	}
	if !loader.Done() {
		t.Fatalf("loader stuck at %d/500", loader.Loaded())
	}
	if got := len(sv.State().Index); got != 500 {
		t.Fatalf("server has %d records, want 500", got)
	}
}

func TestKeyStripesDisjointAcrossKinds(t *testing.T) {
	// Batch clients draw from the lower half, probes from the upper
	// half; no writer shares a key with another writer.
	prof := Redis().Profile()
	cl := core.NewShardedCluster(simtime.NewEngine(), core.ClusterParams{})
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
	sc := simtime.NewEngine()
	clock := sc.Root()
	cl := core.NewShardedCluster(sc, core.ClusterParams{})
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

// TestTraceClientSetReplaysTrace: the trace-driven client set replaces
// the uniform kv client — every trace arrival is issued on the workload
// wire protocol, completes against the live server, and lands in the
// SLO judge with a clean run showing zero violation windows.
func TestTraceClientSetReplaysTrace(t *testing.T) {
	sv := Redis()
	sc := simtime.NewEngine()
	clock := sc.Root()
	cl := core.NewShardedCluster(sc, core.ClusterParams{})
	ctr := cl.NewProtectedContainer("kv", "10.0.0.10", 1)
	sv.Install(ctr)

	cfg, err := traffic.Profile("uniform", 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Clients = 4
	cfg.Rate = 400
	cfg.Duration = simtime.Second
	cfg.SlowFrac = 0
	tr := traffic.Synthesize(cfg)

	set := sv.NewTraceClients(cl, "10.0.0.10", tr, traffic.SLO{})
	clock.RunFor(10 * simtime.Millisecond) // connects settle
	set.Start(clock.Now())
	clock.RunFor(cfg.Duration + 500*simtime.Millisecond)

	if set.Rep.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after drain", set.Rep.Outstanding())
	}
	if int(set.Completed) != set.Rep.Issued() || set.Rep.Issued() < len(tr.Reqs) {
		t.Fatalf("completed=%d issued=%d trace=%d", set.Completed, set.Rep.Issued(), len(tr.Reqs))
	}
	if len(set.Errors) != 0 {
		t.Fatalf("trace client errors: %v", set.Errors)
	}
	rep := set.Finish(clock.Now())
	if rep.Violations != 0 {
		t.Fatalf("clean run has %d violation windows:\n%s", rep.Violations, rep.Line())
	}
}

// TestClientSetCaptureRoundTrip: a uniform run recorded under capture
// mode produces a parseable trace that replays through the trace client.
func TestClientSetCaptureRoundTrip(t *testing.T) {
	sv := Redis()
	sc := simtime.NewEngine()
	clock := sc.Root()
	cl := core.NewShardedCluster(sc, core.ClusterParams{})
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

	// And the capture replays against a fresh server.
	sc2 := simtime.NewEngine()
	clock2 := sc2.Root()
	cl2 := core.NewShardedCluster(sc2, core.ClusterParams{})
	sv2 := Redis()
	sv2.Install(cl2.NewProtectedContainer("kv", "10.0.0.10", 1))
	set2 := sv2.NewTraceClients(cl2, "10.0.0.10", back, traffic.SLO{})
	clock2.RunFor(10 * simtime.Millisecond)
	set2.Start(clock2.Now())
	clock2.RunFor(back.Duration() + 500*simtime.Millisecond)
	if set2.Rep.Outstanding() != 0 || int(set2.Completed) == 0 {
		t.Fatalf("capture replay: completed=%d outstanding=%d", set2.Completed, set2.Rep.Outstanding())
	}
}

// TestKVBatchClientAllocsBounded is the allocation guard for the KV
// request path: after warm-up, receiving a batch's replies, verifying
// them and issuing the replacement batch allocates a few objects at
// most, however large the batch. The socket is closed, so Send drops the
// frames and only the client's own work is counted.
func TestKVBatchClientAllocsBounded(t *testing.T) {
	const maxAllocs = 8
	for _, batch := range []int{1000, 4000} {
		prof := Redis().Profile()
		prof.BatchSize, prof.Records, prof.ZipfianKeys = batch, 2000, false
		cl := core.NewShardedCluster(simtime.NewEngine(), core.ClusterParams{})
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
			for _, o := range c.inflight[c.head : c.head+batch] {
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
			c.receive(replies)
			runtime.ReadMemStats(&after)
			// The first cycles are warm-up: every key gets written and
			// the buffers grow to size.
			if n := after.Mallocs - before.Mallocs; cycle >= 30 && n > allocs {
				allocs = n
			}
		}
		if len(set.Errors) > 0 || set.Completed != int64(40*batch) {
			t.Fatalf("batch %d: %d replies completed, errors %v", batch, set.Completed, set.Errors)
		}
		t.Logf("batch %d: at most %d allocations per reply-and-reissue cycle", batch, allocs)
		if allocs > maxAllocs {
			t.Errorf("batch %d: a reply-and-reissue cycle allocated %d objects, want <= %d", batch, allocs, maxAllocs)
		}
	}
}

// TestServerGetAllocsBounded guards the server's GET path: the record is
// read from the heap into a reused per-server buffer, so a GET
// allocates nothing once that buffer has grown to a record.
func TestServerGetAllocsBounded(t *testing.T) {
	prof := Redis().Profile()
	prof.MemPages, prof.Records = 64, 200
	clock := simtime.NewClock()
	sw := simnet.NewSwitch(clock, 100*simtime.Microsecond, 28*simtime.Millisecond)
	ctr := container.Create(container.NewHost("srv", clock, sw), container.Spec{ID: "kv", IP: "10.0.0.5", Cores: 1})
	sv := NewServer(prof)
	sv.Install(ctr)
	w := sv.workers[0]
	key := binary.BigEndian.AppendUint64(nil, 42)
	want := ValueFor(42, 1, recordSize)
	sv.process(w, pendingReq{Op: OpSet, Payload: append(key, want...)})
	get := pendingReq{Op: OpGet, Payload: key}
	sv.process(w, get) // grows the buffer
	allocs := testing.AllocsPerRun(100, func() { sv.process(w, get) })
	if errs := sv.AppErrors(); len(errs) > 0 || !bytes.Equal(sv.value, want) {
		t.Fatalf("GET read %d bytes, want the stored record (errors %v)", len(sv.value), errs)
	}
	t.Logf("%.0f allocations per GET", allocs)
	if allocs > 0 {
		t.Errorf("a GET allocated %.0f objects, want 0", allocs)
	}
}
