package core

import (
	"fmt"
	"testing"

	"nilicon/internal/criu"
	"nilicon/internal/simkernel"
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
)

// TestReprotectReusesTransferScheduler: the replication link has exactly
// one TransferScheduler multiplexing it. Reprotect used to stack a
// second scheduler on the same link, double-booking its serialization
// window against any transfer still in flight from the old cluster.
func TestReprotectReusesTransferScheduler(t *testing.T) {
	env := newTestEnv(t, DefaultConfig())
	env.repl.Start()
	env.clock.RunFor(500 * simtime.Millisecond)

	// First failover.
	env.ctr.Disconnect()
	env.cl.ReplLink.SetDown(true)
	env.cl.AckLink.SetDown(true)
	env.clock.RunFor(3 * simtime.Second)
	if !env.repl.Backup.Recovered() {
		t.Fatal("failover missing")
	}
	restored := env.repl.Backup.RestoredCtr
	env.ctr.Stop()
	env.cl.ReplLink.SetDown(false)
	env.cl.AckLink.SetDown(false)

	// A transfer still queued on the old scheduler when reprotect runs:
	// stale work from the dead primary's generation.
	env.cl.Xfer.SubmitBytes("stale/leftover", 8<<20, nil, nil)
	if env.cl.Xfer.QueuedBytes() == 0 {
		t.Fatal("setup: no queued bytes on old scheduler")
	}

	app := restored.App.(*kvApp)
	cfg2 := DefaultConfig()
	cfg2.Reattach = func(rc RestoredContainer, state any) {
		fresh := &kvApp{}
		fresh.RestoreState(state)
		fresh.proc = rc.Procs[0]
		fresh.vma = rc.Procs[0].Mem.FindVMA(app.vma.Start)
		fresh.attach(rc)
	}
	swapped, repl2, err := Reprotect(env.cl, restored, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if swapped.Xfer != env.cl.Xfer {
		t.Fatal("reprotect created a second TransferScheduler on the shared link")
	}
	repl2.Start()
	env.clock.RunFor(2 * simtime.Second)
	if q := swapped.Xfer.QueuedBytes(); q != 0 {
		t.Fatalf("queued bytes after resync = %d, want 0", q)
	}
	if f := swapped.Xfer.Flows(); f != 0 {
		t.Fatalf("retained flows after resync = %d, want 0", f)
	}
	if repl2.Epochs() < 10 {
		t.Fatalf("second generation made no progress: %d epochs", repl2.Epochs())
	}
}

// TestSchedulerEvictsDrainedFlows: drained flows used to stay in the
// scheduler's map and round-robin order forever — a leak that also
// skewed fairness against flows created later.
func TestSchedulerEvictsDrainedFlows(t *testing.T) {
	clock := simtime.NewClock()
	link := simnet.NewLink(clock, 50*simtime.Microsecond, 1_250_000_000)
	s := NewTransferScheduler(clock, link)

	done := 0
	for i := 0; i < 5; i++ {
		s.SubmitBytes(fmt.Sprintf("flow%d", i), 1<<20, func() { done++ }, nil)
	}
	clock.RunFor(simtime.Second)
	if done != 5 {
		t.Fatalf("completions = %d, want 5", done)
	}
	if q := s.QueuedBytes(); q != 0 {
		t.Fatalf("QueuedBytes = %d after drain", q)
	}
	if f := s.Flows(); f != 0 {
		t.Fatalf("Flows = %d after drain, want 0 (drained flows must be evicted)", f)
	}

	// Fairness after eviction: a fresh flow still gets service.
	fresh := false
	s.SubmitBytes("late", 1<<20, func() { fresh = true }, nil)
	clock.RunFor(simtime.Second)
	if !fresh {
		t.Fatal("flow submitted after eviction never completed")
	}
	if f := s.Flows(); f != 0 {
		t.Fatalf("Flows = %d after second drain", f)
	}
}

// TestSchedulerEvictionKeepsRoundRobinFair: evicting a flow mid-rotation
// must not skip the flows behind it.
func TestSchedulerEvictionKeepsRoundRobinFair(t *testing.T) {
	clock := simtime.NewClock()
	link := simnet.NewLink(clock, 50*simtime.Microsecond, 1_250_000_000)
	s := NewTransferScheduler(clock, link)

	var order []string
	mk := func(name string, n int64) {
		s.SubmitBytes(name, n*xferChunkBytes, func() { order = append(order, name) }, nil)
	}
	mk("a", 1) // drains (and is evicted) first
	mk("b", 3)
	mk("c", 3)
	clock.RunFor(simtime.Second)
	if len(order) != 3 || order[0] != "a" {
		t.Fatalf("completion order = %v", order)
	}
	// b and c each had 3 chunks interleaved round-robin; b was submitted
	// first, so it must finish no later than c.
	if order[1] != "b" || order[2] != "c" {
		t.Fatalf("post-eviction completion order = %v, want [a b c]", order)
	}
}

// TestCachedInfrequentBeforeFullPanics: a cache marker refers to
// infrequent state shipped with an earlier image. Receiving one before
// any full collection used to record the zero value silently; a restore
// from that state would rebuild the container with no cgroups,
// namespaces or mounts.
func TestCachedInfrequentBeforeFullPanics(t *testing.T) {
	env := newTestEnv(t, DefaultConfig())
	b := env.repl.Backup
	defer func() {
		if recover() == nil {
			t.Fatal("commit of cached-infrequent image before any full collection did not panic")
		}
	}()
	b.commit(0, &criu.Image{ContainerID: "kv", InfrequentCached: true})
}

// TestMultiProcessRestoreImage: buildRestoreImage must hand each process
// exactly its own pages (the store keys pack process index and page
// number) — and do it via range visits, not a full-store scan per
// process.
func TestMultiProcessRestoreImage(t *testing.T) {
	env := newTestEnv(t, DefaultConfig())
	// Second process with its own touched pages.
	proc2 := env.ctr.AddProcess("helper", 2)
	vma2 := proc2.Mem.Mmap(32*simkernel.PageSize, simkernel.ProtRead|simkernel.ProtWrite, "", env.ctr.ID)
	_ = proc2.Mem.Touch(vma2, 0, 32, 9)

	env.repl.Start()
	env.clock.RunFor(500 * simtime.Millisecond)

	env.ctr.Disconnect()
	env.cl.ReplLink.SetDown(true)
	env.cl.AckLink.SetDown(true)
	env.clock.RunFor(3 * simtime.Second)
	if !env.repl.Backup.Recovered() {
		t.Fatal("failover missing")
	}
	restored := env.repl.Backup.RestoredCtr
	if restored == nil {
		t.Fatal("no restored container")
	}
	// kvserver + helper + the replicator's keepalive process.
	if want := len(env.ctr.Procs); len(restored.Procs) != want {
		t.Fatalf("restored %d processes, want %d", len(restored.Procs), want)
	}
	for i, p := range restored.Procs {
		src := env.ctr.Procs[i]
		for _, v := range src.Mem.VMAs() {
			for pn := v.Start / simkernel.PageSize; pn < v.End/simkernel.PageSize; pn++ {
				want := src.Mem.PageData(pn)
				if want == nil {
					continue
				}
				got := p.Mem.PageData(pn)
				if got == nil {
					t.Fatalf("proc %d page %#x missing after restore", i, pn)
				}
				if string(got) != string(want) {
					t.Fatalf("proc %d page %#x differs after restore", i, pn)
				}
			}
		}
	}
}

// BenchmarkBuildRestoreImage measures restore-image assembly with many
// processes: the per-process page extraction must be a range visit, not
// a full-store scan per process (which made the whole build quadratic).
func BenchmarkBuildRestoreImage(b *testing.B) {
	env := newBenchEnv(b)
	for i := 0; i < b.N; i++ {
		img, err := env.repl.Backup.buildRestoreImage()
		if err != nil {
			b.Fatal(err)
		}
		if len(img.Procs) != benchProcs+1 { // +1: keepalive process
			b.Fatalf("procs = %d", len(img.Procs))
		}
	}
}

const benchProcs = 24

func newBenchEnv(b *testing.B) *testEnv {
	b.Helper()
	clock := simtime.NewClock()
	cl := NewShardedCluster(clock, ClusterParams{})
	ctr := cl.NewProtectedContainer("kv", "10.0.0.10", 1)
	app := &kvApp{data: make(map[string]string)}
	proc := ctr.AddProcess("kvserver", 3)
	app.proc = proc
	app.vma = proc.Mem.Mmap(64*simkernel.PageSize, simkernel.ProtRead|simkernel.ProtWrite, "", ctr.ID)
	_ = proc.Mem.Touch(app.vma, 0, 64, 1)
	for i := 1; i < benchProcs; i++ {
		p := ctr.AddProcess(fmt.Sprintf("w%d", i), 1)
		v := p.Mem.Mmap(128*simkernel.PageSize, simkernel.ProtRead|simkernel.ProtWrite, "", ctr.ID)
		_ = p.Mem.Touch(v, 0, 128, byte(i))
	}
	app.attach(ctr)
	repl := NewReplicator(cl, ctr, DefaultConfig())
	repl.Start()
	clock.RunFor(500 * simtime.Millisecond)
	if _, ok := repl.Backup.CommittedEpoch(); !ok {
		b.Fatal("no committed checkpoint")
	}
	return &testEnv{clock: clock, cl: cl, ctr: ctr, app: app, repl: repl}
}

// TestBackupRejectsDeltaAgainstStaleBase: a delta frame that races a
// resynchronization arrives with a base hash naming pre-resync content.
// The backup must reject the whole image — commit returns an error and
// installs nothing — rather than apply the patch to the diverged base
// and commit a corrupted page.
func TestBackupRejectsDeltaAgainstStaleBase(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Opts = DeltaOpts()
	env := newTestEnv(t, cfg)
	env.repl.Start()
	env.clock.RunFor(500 * simtime.Millisecond)

	b := env.repl.Backup
	committed, ok := b.CommittedEpoch()
	if !ok {
		t.Fatal("no committed epoch")
	}
	// Any committed proc-0 page serves as the victim.
	var key uint64
	var base []byte
	b.store.ForEach(func(k uint64, d []byte) {
		if base == nil && k < maxPageNumber {
			key, base = k, append([]byte(nil), d...)
		}
	})
	if base == nil {
		t.Fatal("no committed proc-0 page")
	}

	cur := append([]byte(nil), base...)
	cur[0] ^= 0xA5
	stale := append([]byte(nil), base...)
	stale[1] ^= 0x5A // the pre-resync content the delta was diffed against
	img := &criu.Image{
		ContainerID: "kv", Epoch: committed + 1, InfrequentCached: true,
		Procs: []criu.ProcessImage{{PID: 1, Frames: []criu.PageFrame{{
			Kind: criu.FrameDelta, PN: key, Hash: criu.HashPage(cur),
			BaseHash: criu.HashPage(stale), Delta: criu.EncodeXORDelta(stale, cur),
		}}}},
	}
	if err := b.commit(img.Epoch, img); err == nil {
		t.Fatal("stale-base delta image committed")
	}
	if got, _ := b.CommittedEpoch(); got != committed {
		t.Fatalf("committed epoch moved to %d on a rejected image", got)
	}
	if got := b.store.Get(key); string(got) != string(base) {
		t.Fatalf("rejected delta mutated the committed page")
	}
}

// TestDeltaStreamSurvivesResync: with the delta encoder on, losing
// epochs to a link cut triggers NACK → full resynchronization; the
// encoder must fall back to full frames until the baseline is re-acked
// (a stale delta would be rejected forever and commits would never
// resume), and a failover afterwards must restore the latest content.
func TestDeltaStreamSurvivesResync(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Opts = DeltaOpts()
	env := newTestEnv(t, cfg)
	p := env.app.proc
	v := p.Mem.Mmap(8*simkernel.PageSize, simkernel.ProtRead|simkernel.ProtWrite, "", env.ctr.ID)
	tl := recordEpochs(env.repl)
	env.repl.Start()
	env.clock.RunFor(500 * simtime.Millisecond)
	// Re-dirty the same page across epochs: after its first shipment is
	// acked, the touches ship as XOR deltas.
	for i := 0; i < 8; i++ {
		_ = p.Mem.Write(v.Start, []byte{1, byte(i)})
		env.clock.RunFor(50 * simtime.Millisecond)
	}
	if delta, zero, dedup := compressedFrames(tl); delta+zero+dedup == 0 {
		t.Fatal("no compressed frames before the cut — delta stream not active")
	}

	_ = p.Mem.Write(v.Start, []byte("pre-cut"))
	env.clock.RunFor(100 * simtime.Millisecond)

	env.cl.ReplLink.SetDown(true)
	env.clock.RunFor(50 * simtime.Millisecond) // loses whole epochs
	env.cl.ReplLink.SetDown(false)
	env.clock.RunFor(500 * simtime.Millisecond)
	if env.repl.Resyncs.Value() == 0 {
		t.Fatal("cut lost no epochs — resync path not exercised")
	}
	if env.repl.Backup.Recovered() {
		t.Fatal("50ms cut must not trigger failover")
	}

	// Commits resumed past the resync: the post-baseline stream decoded
	// cleanly at the backup.
	_ = p.Mem.Write(v.Start, []byte("post-heal"))
	env.clock.RunFor(200 * simtime.Millisecond)
	env.repl.Quiesce()
	env.clock.RunFor(300 * simtime.Millisecond)
	rel, _ := env.repl.ReleasedEpoch()
	com, comOK := env.repl.Backup.CommittedEpoch()
	if !comOK || com-rel > 1 {
		t.Fatalf("released %d vs committed %d after resync", rel, com)
	}

	env.ctr.Disconnect()
	env.cl.ReplLink.SetDown(true)
	env.cl.AckLink.SetDown(true)
	env.clock.RunFor(2 * simtime.Second)
	if !env.repl.Backup.Recovered() {
		t.Fatal("no recovery")
	}
	got, err := env.repl.Backup.RestoredCtr.Procs[0].Mem.Read(v.Start, 9)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "post-heal" {
		t.Fatalf("restored %q, want the post-resync committed content", got)
	}
}

// TestInflightDrainsAfterAckOutage: with the ack link cut, the backup
// keeps committing but its acks are lost, so the primary's in-flight
// backlog grows. Acks are cumulative — the first ack after heal must
// retire the whole backlog (exact-match acks used to leak every epoch
// whose individual ack was dropped) and release the buffered output in
// epoch order.
func TestInflightDrainsAfterAckOutage(t *testing.T) {
	env := newTestEnv(t, DefaultConfig())
	env.repl.Start()
	env.clock.RunFor(500 * simtime.Millisecond)

	env.cl.AckLink.SetDown(true)
	env.clock.RunFor(300 * simtime.Millisecond)
	if n := env.repl.InflightEpochs(); n < 5 {
		t.Fatalf("inflight during ack outage = %d, want a growing backlog", n)
	}
	env.cl.AckLink.SetDown(false)
	env.clock.RunFor(200 * simtime.Millisecond)

	env.repl.Quiesce()
	env.clock.RunFor(300 * simtime.Millisecond)
	if n := env.repl.InflightEpochs(); n != 0 {
		t.Fatalf("inflight after heal+quiesce = %d, want 0", n)
	}
	rel, relOK := env.repl.ReleasedEpoch()
	com, comOK := env.repl.Backup.CommittedEpoch()
	if !relOK || !comOK {
		t.Fatalf("released=%v committed=%v", relOK, comOK)
	}
	if rel > com {
		t.Fatalf("released epoch %d beyond committed %d", rel, com)
	}
	if com-rel > 1 {
		t.Fatalf("released epoch %d lags committed %d after drain", rel, com)
	}
}

// TestReplCutResyncsAndDrains: a replication-link cut long enough to
// lose whole checkpoints (but short enough not to trip the failure
// detector) must leave no permanent damage: the backup NACKs the gap,
// the primary ships a full resynchronization baseline, commits resume,
// and the backlog drains.
func TestReplCutResyncsAndDrains(t *testing.T) {
	for _, opts := range []struct {
		name string
		o    OptSet
	}{{"all", AllOpts()}, {"pipelined", PipelinedOpts()}, {"basic", BasicOpts()}} {
		t.Run(opts.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Opts = opts.o
			env := newTestEnv(t, cfg)
			env.repl.Start()
			env.clock.RunFor(500 * simtime.Millisecond)

			env.cl.ReplLink.SetDown(true)
			env.clock.RunFor(50 * simtime.Millisecond)
			env.cl.ReplLink.SetDown(false)
			env.clock.RunFor(500 * simtime.Millisecond)

			if env.repl.Backup.Recovered() {
				t.Fatal("50ms cut must not trigger failover")
			}
			env.repl.Quiesce()
			env.clock.RunFor(300 * simtime.Millisecond)
			if n := env.repl.InflightEpochs(); n != 0 {
				t.Fatalf("inflight after resync+quiesce = %d, want 0", n)
			}
			rel, _ := env.repl.ReleasedEpoch()
			com, comOK := env.repl.Backup.CommittedEpoch()
			if !comOK || com-rel > 1 {
				t.Fatalf("released %d vs committed %d after resync", rel, com)
			}
		})
	}
}

// TestLostImageReleaseKeepsDeltaChainIntact: a primary releases every
// checkpoint image whose transfer is lost. Under the delta encoder the
// lost images' frame payloads are co-owned by the encoder's bases (the
// base of later XOR deltas, the donor of dedup references), and in a
// chain every further replica holds its own copy; releasing a lost
// image must free neither. A cut and heal of one replication link, with
// delta, dedup and zero frames streaming on both sides of it, must end
// with every replica decoding the post-heal stream hash-verified (a
// corrupted base or donor fails verification, which NACKs into another
// resync), holding exactly the primary's memory and every write whose
// reply the client saw.
func TestLostImageReleaseKeepsDeltaChainIntact(t *testing.T) {
	for _, tc := range []struct {
		name          string
		replicas, cut int
	}{{"pair", 2, 0}, {"chain-cut-slot0", 3, 0}, {"chain-cut-slot1", 3, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Opts = DeltaOpts()
			env := newChainEnv(t, tc.replicas, cfg, 0)
			p := env.app.proc
			const pages = 32
			v := p.Mem.Mmap(pages*simkernel.PageSize, simkernel.ProtRead|simkernel.ProtWrite, "", env.ctr.ID)
			page := func(i int) uint64 { return v.Start + uint64(i)*simkernel.PageSize }
			fill := func(seed byte) []byte {
				b := make([]byte, simkernel.PageSize)
				for j := range b {
					b[j] = seed + byte(j*31)
				}
				return b
			}
			// Pages 0–15 take small in-place edits (XOR deltas), 16–23
			// flip between the contents of the two template pages 28/29
			// (dedup references), 30 alternates zero and non-zero.
			tmplA, tmplB := fill(0xA1), fill(0xB2)
			for i := 0; i < 16; i++ {
				_ = p.Mem.Write(page(i), fill(byte(i)))
			}
			_ = p.Mem.Write(page(28), tmplA)
			_ = p.Mem.Write(page(29), tmplB)

			tl := recordEpochs(env.repl)
			env.repl.Start()
			env.clock.RunFor(500 * simtime.Millisecond)
			client := newKVClient(env.views[0], "10.0.0.1", "10.0.0.10")
			env.clock.RunFor(50 * simtime.Millisecond)

			step := 0
			run := func(d simtime.Duration) {
				for end := env.clock.Now().Add(d); env.clock.Now() < end; step++ {
					_ = p.Mem.Write(page(step%16)+uint64(step*37%4000), []byte{byte(step), byte(step >> 8), 0x5A})
					if (step/8)%2 == 0 {
						_ = p.Mem.Write(page(16+step%8), tmplA)
					} else {
						_ = p.Mem.Write(page(16+step%8), tmplB)
					}
					if step%2 == 0 {
						_ = p.Mem.Write(page(30), make([]byte, simkernel.PageSize))
					} else {
						_ = p.Mem.Write(page(30), fill(byte(step)))
					}
					if step%4 == 0 {
						client.send(fmt.Sprintf("SET k%d v%d", step, step))
					}
					env.clock.RunFor(5 * simtime.Millisecond)
				}
			}
			run(300 * simtime.Millisecond)

			view := env.views[tc.cut]
			view.ReplLink.SetDown(true)
			run(60 * simtime.Millisecond) // loses whole epochs
			view.ReplLink.SetDown(false)
			run(300 * simtime.Millisecond) // NACK, resync baseline, re-ack
			if env.repl.Resyncs.Value() == 0 {
				t.Fatal("cut lost no epochs — lost-image release not exercised")
			}

			resyncs := env.repl.Resyncs.Value()
			delta0, _, dedup0 := compressedFrames(tl)
			run(700 * simtime.Millisecond)
			if got := env.repl.Resyncs.Value(); got != resyncs {
				t.Fatalf("resyncs kept coming after the heal (%d → %d): a frame failed verification", resyncs, got)
			}
			if delta, _, dedup := compressedFrames(tl); delta == delta0 || dedup == dedup0 {
				t.Fatal("post-heal stream shipped no delta or dedup frames — decode path not exercised")
			}

			// Drain: stop writing, let one more checkpoint capture the last
			// writes, then quiesce until every epoch is committed everywhere.
			env.clock.RunFor(100 * simtime.Millisecond)
			env.repl.Quiesce()
			env.clock.RunFor(300 * simtime.Millisecond)
			if n := env.repl.InflightEpochs(); n != 0 {
				t.Fatalf("inflight after heal+quiesce = %d, want 0", n)
			}
			last := env.repl.Epochs() - 1
			acked := 0
			for _, r := range client.replies {
				if r == "OK" {
					acked++
				}
			}
			if acked == 0 {
				t.Fatal("client saw no acked writes")
			}
			for i := 0; i < env.repl.Replicas(); i++ {
				b := env.repl.ReplicaAgent(i)
				if com, ok := b.CommittedEpoch(); !ok || com != last {
					t.Fatalf("replica %d committed %d (ok=%v), want the last epoch %d", i, com, ok, last)
				}
				for pg := 0; pg < pages; pg++ {
					pn := page(pg) / simkernel.PageSize
					want := p.Mem.PageData(pn)
					got := b.store.Get(criu.PageKey(0, pn))
					if string(got) != string(want) {
						t.Fatalf("replica %d page %d diverged from the primary's memory", i, pg)
					}
				}
				state := b.lastImage.AppState.(map[string]string)
				for j := 0; j < acked; j++ {
					k := fmt.Sprintf("k%d", 4*j)
					if state[k] != fmt.Sprintf("v%d", 4*j) {
						t.Fatalf("replica %d lost acked write %s (have %q)", i, k, state[k])
					}
				}
			}
		})
	}
}
