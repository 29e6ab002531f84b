package workloads

import (
	"runtime"
	"testing"

	"nilicon/internal/core"
	"nilicon/internal/simnet"
)

// kvStream is a Redis server driven by one batch client through the
// cluster's switch, with the application bytes both sides receive
// counted.
type kvStream struct {
	env    *wlEnv
	set    *ClientSet
	stream int64 // application bytes delivered, requests and replies
}

// newKVStream starts the stream, replicated by a NiLiCon pair under
// core.DefaultConfig when replicate is set, and, once the first batch
// is answered, counts the bytes each delivery hands either side's
// application. (Stack.OnAppSend would pin every send slab, so the count
// would keep them from being reused.)
func newKVStream(tb testing.TB, replicate bool) *kvStream {
	sv := Redis()
	ks := &kvStream{env: newWLEnv(tb, sv)}
	if replicate {
		cfg := core.DefaultConfig()
		cfg.ExtraStopPerCheckpoint = sv.Profile().TotalExtraStop()
		core.NewReplicator(ks.env.cl, ks.env.ctr, cfg).Start()
	}
	ks.set = sv.NewClients(ks.env.cl, "10.0.0.10", 1, 5)
	ks.runBatches(1)
	for _, s := range append(ks.env.ctr.Stack.Sockets(), ks.set.Clients[0].sock) {
		on := s.OnData
		s.OnData = func(s *simnet.Socket) {
			ks.stream += int64(s.Available())
			on(s)
		}
	}
	return ks
}

// runBatches steps the clock until n more batches of replies have
// arrived.
func (ks *kvStream) runBatches(n int) {
	target := ks.set.Completed + int64(n*batchSize)
	for ks.set.Completed < target && ks.env.clock.Step() {
	}
}

// kvStreamByteBudget bounds the bytes the KV stream allocates per
// application byte it carries. The client writes each batch straight
// into a send slab, the server reads the requests in place across
// segments and writes each reply straight into its own slab, and a
// slab goes back to the free list once its last holder lets go, so the
// stream allocates little beyond the heap pages the server's writes
// copy (0.112 measured). When every slab was fresh it allocated 1.13,
// and 1.97 when the client's batch was copied into the slab and each
// frame that straddled two segments into the server's reader buffer.
const kvStreamByteBudget = 0.135

// replicatedByteBudget bounds the same under a NiLiCon pair, whose
// checkpoints also allocate. The images hold the slabs their socket
// write queues and server snapshot view until they are retired and
// superseded, and the plug qdisc holds the replies until their epoch
// commits, so the slabs come back an epoch or two late but come back.
// An image that pinned its slabs would cost every byte its slab again
// (over 1).
const replicatedByteBudget = 0.5

// TestKVStreamByteBudget runs the KV stream for a while, then measures
// TotalAlloc over 60 more batches against the application bytes both
// sides received. It fails if the reader copies straddling frames
// again, a send copies into the slab what was written there already, or
// a slab whose holders all let go is not reused.
func TestKVStreamByteBudget(t *testing.T) {
	ks := newKVStream(t, false)
	checkByteBudget(t, ks, 10, kvStreamByteBudget)
}

// TestReplicatedKVStreamByteBudget is TestKVStreamByteBudget under a
// NiLiCon pair, measured once the initial synchronization is over: it
// fails if checkpoint images, or the requests and output they hold,
// keep their slabs from coming back.
func TestReplicatedKVStreamByteBudget(t *testing.T) {
	ks := newKVStream(t, true)
	checkByteBudget(t, ks, 30, replicatedByteBudget)
}

// checkByteBudget runs warm batches of ks, then fails if the next 60
// allocate more than budget bytes per stream byte.
func checkByteBudget(t *testing.T, ks *kvStream, warm int, budget float64) {
	ks.runBatches(warm)
	if errs := ks.set.ValidationErrors(); len(errs) > 0 {
		t.Fatalf("client errors: %v", errs[:min(3, len(errs))])
	}
	stream := ks.stream
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ks.runBatches(60)
	runtime.ReadMemStats(&after)
	stream = ks.stream - stream
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(stream)
	if errs := ks.set.ValidationErrors(); len(errs) > 0 || stream == 0 {
		t.Fatalf("%d stream bytes, client errors: %v", stream, errs[:min(3, len(errs))])
	}
	t.Logf("%.3f bytes allocated per stream byte (%d stream bytes)", perByte, stream)
	if perByte > budget {
		t.Errorf("the KV stream allocated %.3f bytes per byte it carried, want <= %.3g", perByte, budget)
	}
}

// BenchmarkKVBatchRoundTrip measures one 1,000-request batch of the KV
// stream: the client writes the batch, the server parses, serves and
// answers every request, and the client verifies the replies.
func BenchmarkKVBatchRoundTrip(b *testing.B) {
	ks := newKVStream(b, false)
	ks.runBatches(10)
	b.ReportAllocs()
	b.ResetTimer()
	ks.runBatches(b.N)
	b.StopTimer()
	if errs := ks.set.ValidationErrors(); len(errs) > 0 {
		b.Fatalf("client errors: %v", errs[:min(3, len(errs))])
	}
}
