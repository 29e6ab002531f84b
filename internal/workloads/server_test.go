package workloads

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"nilicon/internal/container"
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
)

// standalone is a server installed in a container of its own (no
// replication) with one client connection that nothing drives: requests
// are driven through process, and get reads the replies off the
// client's socket.
type standalone struct {
	*Server
	clock *simtime.Clock
	conn  connID         // the server's id of the client connection
	cli   *simnet.Socket // the client's end
	fr    FrameReader    // parses the client's read queue
}

// newStandaloneServer installs prof's server in a container of its own
// and connects the client to it.
func newStandaloneServer(prof Profile) *standalone {
	clock := simtime.NewClock()
	sw := simnet.NewSwitch(clock, 100*simtime.Microsecond, 28*simtime.Millisecond)
	ctr := container.Create(container.NewHost("srv", clock, sw), container.Spec{ID: "kv", IP: "10.0.0.5", Cores: 1})
	sv := &standalone{Server: NewServer(prof), clock: clock}
	sv.Install(ctr)
	port := sw.Attach()
	st := simnet.NewStack(clock, "10.0.0.1", port.Send)
	port.SetReceiver(st.Receive)
	sw.Learn(st.IP, port)
	st.Connect(ctr.IP, prof.Port, func(s *simnet.Socket) { sv.cli = s })
	clock.RunFor(10 * simtime.Millisecond)
	for id := range sv.conns {
		sv.conn = id
	}
	if sv.cli == nil || len(sv.conns) != 1 {
		panic("standalone server: client did not connect")
	}
	return sv
}

func setKey(sv *standalone, key uint64) {
	payload := binary.BigEndian.AppendUint64(nil, key)
	sv.process(sv.workers[0], pendingReq{Op: OpSet, Payload: append(payload, ValueFor(key, 1, 16)...)})
}

// get processes a GET of key from the client and returns the reply's
// payload as the client reads it off its socket (nil if no reply came).
func (sv *standalone) get(key uint64) []byte {
	var req [8]byte
	binary.BigEndian.PutUint64(req[:], key)
	sv.process(sv.workers[0], pendingReq{Conn: sv.conn, Op: OpGet, Payload: req[:]})
	sv.clock.RunFor(simtime.Millisecond)
	sv.fr.Feed(sv.cli.ReadAll())
	if op, p, ok := sv.fr.Next(); ok && op == OpGet {
		return p
	}
	return nil
}

// hits reports whether a GET for key finds a record.
func hits(sv *standalone, key uint64) bool { return len(sv.get(key)) > 0 }

// TestRecordLogSnapshotIsolation checks that a snapshot, which shares
// the live server's record log by prefix, sees exactly the keys set
// before it was taken, and that two servers grown from one snapshot
// never write into each other's log.
func TestRecordLogSnapshotIsolation(t *testing.T) {
	const n = 100
	prof := Redis().Profile()
	prof.MemPages, prof.Records = 64, 200
	old := newStandaloneServer(prof)
	for k := uint64(0); k < n; k++ {
		setKey(old, k)
	}
	snap := old.SnapshotState()
	for k := uint64(n); k < n+10; k++ {
		setKey(old, k)
	}

	restored := newStandaloneServer(prof)
	restored.RestoreState(snap)
	if got := len(restored.State().Keys); got != n || len(restored.index) != n {
		t.Fatalf("restored server holds %d log entries and %d indexed keys, want %d", got, len(restored.index), n)
	}
	if !hits(restored, n-1) {
		t.Errorf("GET of pre-snapshot key %d missed on the restored server", n-1)
	}
	if hits(restored, n) {
		t.Errorf("GET of post-snapshot key %d hit on the restored server", n)
	}

	// Both servers now append past the snapshot's prefix, with different
	// keys. A snapshot that handed out spare capacity would let the
	// restored server overwrite the old server's slots.
	for k := uint64(1000); k < 1010; k++ {
		setKey(restored, k)
	}
	for k := uint64(2000); k < 2010; k++ {
		setKey(old, k)
	}
	if errs := append(old.AppErrors(), restored.AppErrors()...); len(errs) > 0 {
		t.Fatalf("server errors: %v", errs)
	}
	for _, c := range []struct {
		name       string
		sv         *standalone
		own, other uint64
	}{
		{"old", old, 2000, 1000},
		{"restored", restored, 1000, 2000},
	} {
		// Restoring from a fresh snapshot rebuilds the index from the
		// log alone, so it sees exactly what the log holds.
		again := newStandaloneServer(prof)
		again.RestoreState(c.sv.SnapshotState())
		for k := c.own; k < c.own+10; k++ {
			if !hits(c.sv, k) || !hits(again, k) {
				t.Errorf("%s: own key %d missing (live %v, re-restored %v)", c.name, k, hits(c.sv, k), hits(again, k))
			}
		}
		for k := c.other; k < c.other+10; k++ {
			if hits(c.sv, k) || hits(again, k) {
				t.Errorf("%s: sees the other server's key %d (live %v, re-restored %v)", c.name, k, hits(c.sv, k), hits(again, k))
			}
		}
		for k := uint64(0); k < n; k++ {
			if c.sv.State().Keys[k] != k {
				t.Fatalf("%s: log slot %d holds key %d, want %d", c.name, k, c.sv.State().Keys[k], k)
			}
		}
	}
	if !hits(old, n-1) || !hits(old, n) {
		t.Errorf("old server lost keys it set around the snapshot")
	}
}

// snapshotCost returns the mean allocations and bytes allocated by one
// SnapshotState call on a server holding keys records.
func snapshotCost(t *testing.T, keys int) (allocs float64, bytes uint64) {
	prof := Redis().Profile()
	prof.Records = keys
	prof.MemPages = (keys*recordSize+4095)/4096 + 64
	sv := newStandaloneServer(prof)
	for k := 0; k < keys; k++ {
		setKey(sv, uint64(k))
	}
	if errs := sv.AppErrors(); len(errs) > 0 {
		t.Fatalf("%d keys: server errors: %v", keys, errs)
	}
	// Forgetting the last snapshot makes every call take a fresh one,
	// as after a state change; an unchanged state shares its last
	// snapshot and allocates nothing.
	snapshot := func() {
		sv.lastSnap = nil
		_ = sv.SnapshotState()
	}
	const runs = 50
	allocs = testing.AllocsPerRun(runs, snapshot)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		snapshot()
	}
	runtime.ReadMemStats(&after)
	return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestSnapshotStateCostIndependentOfKeys guards the per-epoch app-state
// snapshot: it shares the record log, so taking one at 20,000 keys
// allocates what it does at 100 keys, give or take a constant.
func TestSnapshotStateCostIndependentOfKeys(t *testing.T) {
	smallAllocs, smallBytes := snapshotCost(t, 100)
	bigAllocs, bigBytes := snapshotCost(t, 20000)
	t.Logf("SnapshotState: %.0f allocs, %d B at 100 keys; %.0f allocs, %d B at 20,000 keys",
		smallAllocs, smallBytes, bigAllocs, bigBytes)
	const slackBytes = 1024
	if bigAllocs > smallAllocs+2 || bigBytes > smallBytes+slackBytes {
		t.Errorf("SnapshotState at 20,000 keys costs %.0f allocs, %d B; want within 2 allocs and %d B of the 100-key cost (%.0f allocs, %d B)",
			bigAllocs, bigBytes, slackBytes, smallAllocs, smallBytes)
	}
}

// TestSnapshotStateSharedWhileUnchanged: a server whose state did not
// change since its last snapshot hands out that snapshot again, and a
// change (a new key) makes the next snapshot fresh, while the shared
// one keeps what it held.
func TestSnapshotStateSharedWhileUnchanged(t *testing.T) {
	sv := newStandaloneServer(Redis().Profile())
	setKey(sv, 1)
	first := sv.SnapshotState()
	if allocs := testing.AllocsPerRun(20, func() {
		if sv.SnapshotState() != first {
			t.Fatal("an unchanged server took a fresh snapshot")
		}
	}); allocs != 0 {
		t.Fatalf("snapshot of an unchanged server: %.0f allocations, want 0", allocs)
	}
	setKey(sv, 2)
	next := sv.SnapshotState()
	if next == first {
		t.Fatal("a new key did not make a fresh snapshot")
	}
	if got, want := len(first.(*serverState).Keys), 1; got != want {
		t.Fatalf("the shared snapshot holds %d keys after a later set, want %d", got, want)
	}
	if got := len(next.(*serverState).Keys); got != 2 {
		t.Fatalf("the fresh snapshot holds %d keys, want 2", got)
	}
}

// BenchmarkServerSnapshotState takes the per-epoch app-state snapshot
// of a server holding 20,000 records.
func BenchmarkServerSnapshotState(b *testing.B) {
	prof := Redis().Profile()
	sv := newStandaloneServer(prof)
	for k := 0; k < prof.Records; k++ {
		setKey(sv, uint64(k))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSnapshot = sv.SnapshotState()
	}
}

var benchSnapshot any

// connectKV installs a Redis-profile server, connects one client to it
// and returns the client's socket and the server's end of the
// connection.
func connectKV(t *testing.T) (env *wlEnv, sv *Server, cli, srv *simnet.Socket) {
	t.Helper()
	sv = Redis()
	env = newWLEnv(t, sv)
	env.cl.NewClient("10.0.0.1").Connect("10.0.0.10", sv.prof.Port, func(s *simnet.Socket) { cli = s })
	env.clock.RunFor(10 * simtime.Millisecond)
	if cli == nil || len(sv.conns) != 1 {
		t.Fatalf("client connected: %v, server connections %d, want 1", cli != nil, len(sv.conns))
	}
	for _, srv = range sv.conns {
	}
	return env, sv, cli, srv
}

// The server binds a connection's id and frame reader into its data
// handler at accept, so a one-frame segment on an established
// connection formats nothing and allocates nothing: the reader adopts
// the delivered payload and the request queue only grows now and then.
func TestServerOnDataAllocatesNothing(t *testing.T) {
	env, _, cli, srv := connectKV(t)
	handler := srv.OnData
	var before, after runtime.MemStats
	var mallocs, segs uint64
	measuring := false
	srv.OnData = func(s *simnet.Socket) {
		runtime.ReadMemStats(&before)
		handler(s)
		runtime.ReadMemStats(&after)
		if measuring {
			mallocs += after.Mallocs - before.Mallocs
			segs++
		}
	}
	frame := AppendFrame(nil, OpGet, binary.BigEndian.AppendUint64(nil, 7))
	for i := 0; i < 300; i++ {
		measuring = i >= 50
		cli.Send(frame)
		env.clock.RunFor(simtime.Millisecond)
	}
	if segs != 250 {
		t.Fatalf("handler saw %d measured segments, want 250", segs)
	}
	perSeg := float64(mallocs) / float64(segs)
	t.Logf("%d allocations over %d one-frame segments (%.3f per segment)", mallocs, segs, perSeg)
	if perSeg >= 0.05 {
		t.Errorf("the server's data handler allocated %.3f objects per segment, want < 0.05", perSeg)
	}
}

// A connection's partial frame is checkpointed under its id, and a
// server reattached to the container finds it under the id it binds to
// the same socket: the rest of the frame completes the request, which
// the reattached server queues.
func TestReattachFindsReaderBufsUnderSameID(t *testing.T) {
	env, sv, cli, srv := connectKV(t)
	frame := AppendFrame(nil, OpGet, binary.BigEndian.AppendUint64(nil, 7))
	cli.Send(frame[:3])
	env.clock.RunFor(5 * simtime.Millisecond)
	state := sv.SnapshotState().(*serverState)
	if len(state.ReaderBufs) != 1 {
		t.Fatalf("checkpoint holds %d partial frames, want 1", len(state.ReaderBufs))
	}
	fresh := NewServer(sv.prof)
	if err := fresh.Reattach(env.ctr, state); err != nil {
		t.Fatal(err)
	}
	fr := fresh.readers[connIDOf(srv)]
	if fr == nil || fr.Buffered() != 3 {
		t.Fatalf("reattached reader for %s = %v, want the 3 checkpointed bytes", connIDOf(srv), fr)
	}
	cli.Send(frame[3:])
	env.clock.RunFor(5 * simtime.Millisecond)
	if p := fresh.state.Pending; len(p) != 1 || p[0].Conn != connIDOf(srv) || p[0].Op != OpGet ||
		binary.BigEndian.Uint64(p[0].Payload) != 7 {
		t.Fatalf("reattached server queued %+v, want one GET of key 7 on %s", p, connIDOf(srv))
	}
}

// TestSnapshotPendingSurvivesQueueReuse: a snapshot shares the live
// request queue's array instead of copying it, and keeps the requests
// it held while the live queue drains, refills past its array's end,
// drains again and refills; a server restored from it queues exactly
// the snapshot's requests, and two such servers' pops and pushes leave
// the snapshot and each other alone.
func TestSnapshotPendingSurvivesQueueReuse(t *testing.T) {
	sv := newStandaloneServer(Redis().Profile())
	req := func(key uint64) pendingReq {
		return pendingReq{Conn: sv.conn, Op: OpGet, Payload: binary.BigEndian.AppendUint64(nil, key)}
	}
	keysOf := func(q []pendingReq) []uint64 {
		var keys []uint64
		for _, r := range q {
			keys = append(keys, binary.BigEndian.Uint64(r.Payload))
		}
		return keys
	}
	span := func(lo, hi uint64) []uint64 {
		var keys []uint64
		for k := lo; k < hi; k++ {
			keys = append(keys, k)
		}
		return keys
	}
	for k := uint64(0); k < 20; k++ {
		sv.push(req(k))
	}
	for i := 0; i < 5; i++ {
		sv.pop()
	}
	snap := sv.SnapshotState().(*serverState)
	if &snap.Pending[0] != &sv.state.Pending[0] {
		t.Fatal("the snapshot copied the request queue")
	}
	check := func(when string) {
		t.Helper()
		if got, want := keysOf(snap.Pending), span(5, 20); !slices.Equal(got, want) {
			t.Fatalf("%s: snapshot queues keys %v, want %v", when, got, want)
		}
	}
	for len(sv.state.Pending) > 0 {
		sv.pop()
	}
	check("after the live queue drained")
	for k := uint64(100); k < 200; k++ {
		sv.push(req(k))
	}
	check("after it refilled past its array")
	for i := 0; i < 90; i++ {
		sv.pop()
	}
	for k := uint64(200); k < 300; k++ {
		sv.push(req(k))
	}
	check("after it drained and refilled again")
	if got, want := keysOf(sv.state.Pending), span(190, 300); !slices.Equal(got, want) {
		t.Fatalf("live queue holds keys %v, want %v", got, want)
	}

	// Two servers restored from the snapshot push different keys.
	restored, again := newStandaloneServer(Redis().Profile()), newStandaloneServer(Redis().Profile())
	restored.RestoreState(snap)
	again.RestoreState(snap)
	if got, want := keysOf(restored.state.Pending), span(5, 20); !slices.Equal(got, want) {
		t.Fatalf("restored server queues keys %v, want %v", got, want)
	}
	for i := 0; i < 15; i++ {
		restored.pop()
	}
	for k := uint64(1000); k < 1040; k++ {
		restored.push(req(k))
		again.push(req(k + 1000))
	}
	check("after the restored servers pushed")
	if got, want := keysOf(restored.state.Pending), span(1000, 1040); !slices.Equal(got, want) {
		t.Fatalf("restored server queues keys %v, want %v", got, want)
	}
	if got, want := keysOf(again.state.Pending), append(span(5, 20), span(2000, 2040)...); !slices.Equal(got, want) {
		t.Fatalf("second restored server queues keys %v, want %v", got, want)
	}
}

// TestServerRejectsMalformedRequests: a request too short for its op,
// an unknown op, or a key past the heap is recorded as an app error and
// answered with nothing.
func TestServerRejectsMalformedRequests(t *testing.T) {
	prof := Redis().Profile()
	prof.MemPages, prof.Records = 64, 200
	sv := newStandaloneServer(prof)
	for _, req := range []pendingReq{
		{Op: OpSet, Payload: []byte{1, 2, 3}},
		{Op: OpGet, Payload: []byte{1}},
		{Op: OpWeb, Payload: []byte{1}},
		{Op: 'Z'},
	} {
		req.Conn = sv.conn
		sv.process(sv.workers[0], req)
	}
	// Past the heap: the SET that does not fit, then the GET of its key.
	for k := uint64(0); len(sv.AppErrors()) == 4; k++ {
		setKey(sv, k)
	}
	full := sv.State().Keys[len(sv.State().Keys)-1]
	if got := sv.get(full); got != nil {
		t.Fatalf("GET past the heap answered %q", got)
	}
	want := []string{"short SET payload", "short GET payload", "short WEB payload", `unknown op 'Z'`,
		fmt.Sprintf("heap full at slot %d", len(sv.State().Keys)-1), "index points past heap"}
	if got := sv.AppErrors(); !slices.Equal(got, want) {
		t.Fatalf("app errors %q, want %q", got, want)
	}
	sv.clock.RunFor(simtime.Millisecond)
	if n := sv.cli.Available(); n != 0 {
		t.Fatalf("the client got %d reply bytes to malformed requests", n)
	}
}

// TestReattachWithoutTheHeapFails: reattaching to a container whose
// process lacks the checkpointed heap is an error, recorded for the
// validation oracles, and that process gets no workers.
func TestReattachWithoutTheHeapFails(t *testing.T) {
	prof := Redis().Profile()
	prof.MemPages, prof.Records = 64, 200
	sv := newStandaloneServer(prof)
	clock := simtime.NewClock()
	sw := simnet.NewSwitch(clock, 100*simtime.Microsecond, 28*simtime.Millisecond)
	ctr := container.Create(container.NewHost("other", clock, sw), container.Spec{ID: "kv", IP: "10.0.0.6", Cores: 1})
	ctr.AddProcess("redis", 1)
	fresh := NewServer(prof)
	err := fresh.Reattach(ctr, sv.SnapshotState())
	if err == nil || !slices.Equal(fresh.AppErrors(), []string{err.Error()}) || len(fresh.workers) != 0 {
		t.Fatalf("Reattach = %v, app errors %q, %d workers: want the missing heap reported and no workers",
			err, fresh.AppErrors(), len(fresh.workers))
	}
}
