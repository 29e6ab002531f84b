package workloads

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"testing/quick"

	"nilicon/internal/core"
	"nilicon/internal/simtime"
)

func TestFrameRoundTrip(t *testing.T) {
	var fr FrameReader
	fr.Feed(Frame(OpSet, []byte("payload")))
	op, p, ok := fr.Next()
	if !ok || op != OpSet || string(p) != "payload" {
		t.Fatalf("got %q %q %v", op, p, ok)
	}
	if _, _, ok := fr.Next(); ok {
		t.Fatal("spurious second frame")
	}
}

func TestFrameReaderHandlesFragmentation(t *testing.T) {
	msg := Frame(OpGet, bytes.Repeat([]byte{7}, 100))
	var fr FrameReader
	for _, b := range msg {
		fr.Feed([]byte{b})
	}
	op, p, ok := fr.Next()
	if !ok || op != OpGet || len(p) != 100 {
		t.Fatal("fragmented frame not reassembled")
	}
}

func TestFrameReaderHandlesCoalescing(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		buf.Write(Frame(OpEcho, []byte{byte(i)}))
	}
	var fr FrameReader
	fr.Feed(buf.Bytes())
	for i := 0; i < 5; i++ {
		_, p, ok := fr.Next()
		if !ok || p[0] != byte(i) {
			t.Fatalf("frame %d: %v %v", i, p, ok)
		}
	}
}

// Property: any split of any frame sequence reassembles identically.
func TestPropertyFrameReassembly(t *testing.T) {
	f := func(payloads [][]byte, splits []uint8) bool {
		var stream bytes.Buffer
		for _, p := range payloads {
			if len(p) > 1000 {
				p = p[:1000]
			}
			stream.Write(Frame(OpEcho, p))
		}
		var fr FrameReader
		data := stream.Bytes()
		i := 0
		for _, sp := range splits {
			n := int(sp)%97 + 1
			if i+n > len(data) {
				break
			}
			fr.Feed(data[i : i+n])
			i += n
		}
		fr.Feed(data[i:])
		for _, p := range payloads {
			if len(p) > 1000 {
				p = p[:1000]
			}
			op, got, ok := fr.Next()
			if !ok || op != OpEcho || !bytes.Equal(got, p) {
				return false
			}
		}
		_, _, ok := fr.Next()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestValueForDeterministic(t *testing.T) {
	a := ValueFor(42, 7, 1024)
	b := ValueFor(42, 7, 1024)
	if !bytes.Equal(a, b) {
		t.Fatal("ValueFor not deterministic")
	}
	if bytes.Equal(a, ValueFor(42, 8, 1024)) {
		t.Fatal("different versions produced equal values")
	}
	if bytes.Equal(a, ValueFor(43, 7, 1024)) {
		t.Fatal("different keys produced equal values")
	}
}

// valueForReference is ValueFor's defining per-byte formula. Verifying
// clients and the benchmark's value decoder depend on these exact bytes.
func valueForReference(key uint64, version uint32, size int) []byte {
	out := make([]byte, size)
	var seed [12]byte
	binary.BigEndian.PutUint64(seed[:], key)
	binary.BigEndian.PutUint32(seed[8:], version)
	for i := range out {
		out[i] = seed[i%12] ^ byte(i*131>>3)
	}
	return out
}

// TestValueForMatchesReference checks ValueFor byte for byte against the
// per-byte formula at sizes around the seed period (12), the mask period
// (2048), their multiples and past 64 KiB, for many (key, version) pairs.
func TestValueForMatchesReference(t *testing.T) {
	sizes := []int{0, 1, 11, 12, 13, 24, 1024, 2047, 2048, 2049, 4096, 4097, 6144, 6145, 64<<10 + 13}
	keys := []uint64{0, 1, 42, 0xFF, 1 << 32, 0xDEADBEEFCAFEF00D, ^uint64(0)}
	versions := []uint32{0, 1, 7, 0xFFFF, ^uint32(0)}
	for _, size := range sizes {
		for _, key := range keys {
			for _, v := range versions {
				got, want := ValueFor(key, v, size), valueForReference(key, v, size)
				if len(got) != size || !bytes.Equal(got, want) {
					t.Fatalf("ValueFor(%#x, %d, %d) differs from the reference formula", key, v, size)
				}
			}
		}
	}
	prop := func(key uint64, v uint32, size uint16) bool {
		return bytes.Equal(ValueFor(key, v, int(size)), valueForReference(key, v, int(size)))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestByNameCoversAll(t *testing.T) {
	for _, name := range BenchmarkNames() {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if w.Profile().Name != name {
			t.Fatalf("profile name %q for %q", w.Profile().Name, name)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestByNameUnknownListsValidNames(t *testing.T) {
	_, err := ByName("redsi")
	if err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"redsi"`) {
		t.Fatalf("error does not echo the bad name: %v", err)
	}
	for _, name := range AllNames() {
		if !strings.Contains(msg, name) {
			t.Fatalf("error does not list valid name %q: %v", name, err)
		}
	}
}

// env spins up a cluster with the given workload installed, unreplicated.
type wlEnv struct {
	clock *simtime.Clock
	cl    *core.Cluster
	ctr   core.RestoredContainer
	wl    Workload
}

func newWLEnv(t *testing.T, wl Workload) *wlEnv {
	t.Helper()
	sc := simtime.NewEngine()
	clock := sc.Root()
	cl := core.NewShardedCluster(sc, core.ClusterParams{})
	ctr := cl.NewProtectedContainer(wl.Profile().Name, "10.0.0.10", 4)
	wl.Install(ctr)
	return &wlEnv{clock: clock, cl: cl, ctr: ctr, wl: wl}
}

func TestKVServerServesBatchClient(t *testing.T) {
	sv := Redis()
	env := newWLEnv(t, sv)
	set := sv.NewClients(env.cl, "10.0.0.10", 1, 42)
	env.clock.RunFor(2 * simtime.Second)
	if set.Completed < 10000 {
		t.Fatalf("completed = %d, expected sustained batch throughput", set.Completed)
	}
	if len(set.Errors) != 0 {
		t.Fatalf("client errors: %v", set.Errors[:min(3, len(set.Errors))])
	}
	if sv.Processed() < 10000 {
		t.Fatalf("server processed = %d", sv.Processed())
	}
}

func TestKVContentVerified(t *testing.T) {
	// The client verifies every GET against the deterministic expected
	// value; run long enough to revisit keys.
	sv := Redis()
	env := newWLEnv(t, sv)
	set := sv.NewClients(env.cl, "10.0.0.10", 1, 7)
	env.clock.RunFor(3 * simtime.Second)
	if set.Completed == 0 || len(set.Errors) > 0 {
		t.Fatalf("completed=%d errors=%v", set.Completed, set.Errors)
	}
}

func TestWebServerServesGoldenPages(t *testing.T) {
	sv := Lighttpd()
	env := newWLEnv(t, sv)
	set := sv.NewClients(env.cl, "10.0.0.10", 8, 3)
	env.clock.RunFor(2 * simtime.Second)
	// 4 workers × 140ms watermarking requests → ≈28 req/s saturated.
	if set.Completed < 40 {
		t.Fatalf("completed = %d", set.Completed)
	}
	if len(set.Errors) != 0 {
		t.Fatalf("golden-copy mismatches: %v", set.Errors[:min(3, len(set.Errors))])
	}
}

func TestEchoServer(t *testing.T) {
	sv := NetStress()
	env := newWLEnv(t, sv)
	set := sv.NewClients(env.cl, "10.0.0.10", 2, 5)
	env.clock.RunFor(2 * simtime.Second)
	if set.Completed < 100 || len(set.Errors) > 0 {
		t.Fatalf("completed=%d errors=%v", set.Completed, set.Errors)
	}
}

func TestSSDBWritesReachDisk(t *testing.T) {
	sv := SSDB()
	env := newWLEnv(t, sv)
	sv.NewClients(env.cl, "10.0.0.10", 1, 9)
	env.clock.RunFor(simtime.Second)
	if env.cl.Primary.Disk.Writes() == 0 {
		t.Fatal("full-persistence SSDB never wrote to disk")
	}
}

func TestParsecCompletesWork(t *testing.T) {
	pw := Swaptions()
	pw.Profile()
	env := newWLEnv(t, pw)
	env.clock.RunFor(20 * simtime.Second)
	if !pw.Done() {
		t.Fatalf("swaptions incomplete: %d/%d units", pw.CompletedUnits(), pw.Profile().WorkUnits)
	}
	// 4 threads × 2.5ms/unit, 4800 units → 3 s of virtual time.
	done := env.clock.Now()
	_ = done
}

func TestParsecDirtyRateMatchesProfile(t *testing.T) {
	pw := Streamcluster()
	env := newWLEnv(t, pw)
	p := env.ctr.Procs[0]
	env.clock.RunFor(100 * simtime.Millisecond)
	p.Mem.ClearSoftDirtyBits()
	env.clock.RunFor(30 * simtime.Millisecond)
	dirty := len(p.Mem.DirtyPageNumbers())
	// Target ≈ 290 pages per 30 ms epoch (Table III: 303).
	if dirty < 200 || dirty > 400 {
		t.Fatalf("dirty pages per epoch = %d, want ≈290", dirty)
	}
}

func TestDiskStressSelfChecks(t *testing.T) {
	d := NewDiskStress(11)
	env := newWLEnv(t, d)
	env.clock.RunFor(2 * simtime.Second)
	if d.Ops() < 1000 {
		t.Fatalf("ops = %d", d.Ops())
	}
	if len(d.Errors()) != 0 {
		t.Fatalf("self-check errors: %v", d.Errors()[:min(3, len(d.Errors()))])
	}
}

// replicatedEnv runs a workload under NiLiCon replication. Reattach
// builds a FRESH workload instance: after a fail-stop fault the primary
// container may still be executing (just disconnected), so the restored
// container must not share application objects with it.
func replicatedEnv(t *testing.T, wl Workload) (*wlEnv, *core.Replicator) {
	t.Helper()
	env := newWLEnv(t, wl)
	cfg := core.DefaultConfig()
	prof := wl.Profile()
	cfg.ExtraStopPerCheckpoint = prof.TotalExtraStop()
	cfg.RuntimeTaxPerEpoch = prof.RuntimeTax
	cfg.Reattach = func(rc core.RestoredContainer, state any) {
		fresh, err := ByName(prof.Name)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Reattach(rc, state); err != nil {
			t.Errorf("reattach %s: %v", prof.Name, err)
		}
	}
	repl := core.NewReplicator(env.cl, env.ctr, cfg)
	repl.Start()
	return env, repl
}

func TestRedisUnderReplicationStopTimeNearPaper(t *testing.T) {
	sv := Redis()
	env, repl := replicatedEnv(t, sv)
	set := sv.NewClients(env.cl, "10.0.0.10", 1, 21)
	env.clock.RunFor(4 * simtime.Second)
	repl.Stop()
	if len(set.Errors) != 0 {
		t.Fatalf("errors under replication: %v", set.Errors[:min(3, len(set.Errors))])
	}
	stop := repl.StopTimes.Mean() * 1000 // ms
	// Paper Table III: 18.9 ms. Accept ±40%.
	if stop < 11 || stop > 27 {
		t.Fatalf("redis mean stop = %.1fms, want ≈18.9ms", stop)
	}
}

func TestFailoverRedisKVConsistency(t *testing.T) {
	// The §VII-A flow: run, fail the primary, recover, and verify the
	// client's reads remain consistent with its writes — with no broken
	// connections.
	sv := Redis()
	env, repl := replicatedEnv(t, sv)
	set := sv.NewClients(env.cl, "10.0.0.10", 1, 33)
	env.clock.RunFor(2 * simtime.Second)

	env.ctr.Disconnect()
	env.cl.ReplLink.SetDown(true)
	env.cl.AckLink.SetDown(true)

	env.clock.RunFor(10 * simtime.Second)
	if !repl.Backup.Recovered() {
		t.Fatal("no recovery")
	}
	if err := repl.Backup.RecoverError(); err != nil {
		t.Fatal(err)
	}
	before := set.Completed
	env.clock.RunFor(5 * simtime.Second)
	if set.Completed <= before {
		t.Fatal("client made no progress after failover")
	}
	if len(set.Errors) != 0 {
		t.Fatalf("consistency violations after failover: %v", set.Errors[:min(5, len(set.Errors))])
	}
	if set.Resets != 0 {
		t.Fatalf("%d broken connections", set.Resets)
	}
	restored := repl.Backup.RestoredCtr
	if restored.Stack.RSTsSent() != 0 {
		t.Fatal("backup sent RSTs")
	}
}

func TestFailoverDiskStressConsistency(t *testing.T) {
	d := NewDiskStress(17)
	env, repl := replicatedEnv(t, d)
	env.clock.RunFor(2 * simtime.Second)
	env.ctr.Disconnect()
	env.cl.ReplLink.SetDown(true)
	env.cl.AckLink.SetDown(true)
	env.clock.RunFor(5 * simtime.Second)
	if !repl.Backup.Recovered() {
		t.Fatal("no recovery")
	}
	// The restored instance keeps running and self-checking.
	restoredApp := repl.Backup.RestoredCtr.App.(*DiskStress)
	opsAt := restoredApp.Ops()
	env.clock.RunFor(3 * simtime.Second)
	if restoredApp.Ops() <= opsAt {
		t.Fatal("diskstress made no progress after failover")
	}
	if errs := restoredApp.Errors(); len(errs) != 0 {
		t.Fatalf("disk/file-cache inconsistency after failover: %v", errs[:min(5, len(errs))])
	}
}

func TestFailoverParsecResumesFromCheckpoint(t *testing.T) {
	pw := Swaptions()
	env, repl := replicatedEnv(t, pw)
	env.clock.RunFor(simtime.Second)
	unitsBefore := pw.CompletedUnits()
	if unitsBefore == 0 {
		t.Fatal("no progress before failure")
	}
	env.ctr.Disconnect()
	env.cl.ReplLink.SetDown(true)
	env.cl.AckLink.SetDown(true)
	// Step in small increments so we can sample progress right at the
	// moment of recovery, before the restored container runs on.
	for i := 0; i < 3000 && !repl.Backup.Recovered(); i++ {
		env.clock.RunFor(simtime.Millisecond)
	}
	if !repl.Backup.Recovered() {
		t.Fatal("no recovery")
	}
	restored := repl.Backup.RestoredCtr.App.(*Parsec)
	at := restored.CompletedUnits()
	if at == 0 {
		t.Fatal("restored with zero progress")
	}
	// The restored state is the last committed checkpoint: progress may
	// roll back a little but can never exceed the pre-failure count.
	if at > unitsBefore {
		t.Fatalf("restored progress %d exceeds pre-failure %d", at, unitsBefore)
	}
	env.clock.RunFor(10 * simtime.Second)
	if restored.CompletedUnits() <= at {
		t.Fatal("no progress after failover")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestZipfianKeysSkewed(t *testing.T) {
	prof := Redis().Profile()
	prof.ZipfianKeys = true
	sc := simtime.NewEngine()
	clock := sc.Root()
	cl := core.NewShardedCluster(sc, core.ClusterParams{})
	ctr := cl.NewProtectedContainer("z", "10.0.0.10", 1)
	sv := NewServer(prof)
	sv.Install(ctr)
	set := NewClientSet(cl, prof, "10.0.0.10", KVBatch, 1, 5)
	clock.RunFor(500 * simtime.Millisecond)
	if set.Completed == 0 || len(set.Errors) > 0 {
		t.Fatalf("zipfian run failed: completed=%d errors=%v", set.Completed, set.Errors)
	}
	// Skew check: far fewer distinct slots than requests.
	distinct := len(sv.State().Index)
	if int64(distinct)*4 > set.Completed {
		t.Fatalf("zipfian draw not skewed: %d distinct keys for %d ops", distinct, set.Completed)
	}
}

func TestUniformKeysCoverStripe(t *testing.T) {
	prof := Redis().Profile()
	sc := simtime.NewEngine()
	clock := sc.Root()
	cl := core.NewShardedCluster(sc, core.ClusterParams{})
	ctr := cl.NewProtectedContainer("u", "10.0.0.10", 1)
	sv := NewServer(prof)
	sv.Install(ctr)
	set := NewClientSet(cl, prof, "10.0.0.10", KVBatch, 1, 5)
	clock.RunFor(500 * simtime.Millisecond)
	distinct := len(sv.State().Index)
	// Uniform draws over a 10K stripe should spread widely.
	if distinct < 1000 {
		t.Fatalf("uniform distribution too narrow: %d distinct keys for %d ops", distinct, set.Completed)
	}
	_ = set
}
