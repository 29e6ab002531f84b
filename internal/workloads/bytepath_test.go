package workloads

import (
	"runtime"
	"testing"

	"nilicon/internal/simnet"
)

// kvStream is a Redis server driven by one batch client through the
// cluster's switch, unreplicated, with the application bytes both
// stacks send counted.
type kvStream struct {
	env    *wlEnv
	set    *ClientSet
	stream int64 // application bytes sent, requests and replies
}

func newKVStream(tb testing.TB) *kvStream {
	sv := Redis()
	ks := &kvStream{env: newWLEnv(tb, sv)}
	count := func(_ *simnet.Socket, b []byte) { ks.stream += int64(len(b)) }
	ks.env.ctr.Stack.OnAppSend = count
	ks.set = sv.NewClients(ks.env.cl, "10.0.0.10", 1, 5)
	ks.set.Clients[0].stack.OnAppSend = count
	return ks
}

// runBatches steps the clock until n more batches of replies have
// arrived.
func (ks *kvStream) runBatches(n int) {
	target := ks.set.Completed + int64(n*ks.set.prof.BatchSize)
	for ks.set.Completed < target && ks.env.clock.Step() {
	}
}

// kvStreamByteBudget bounds the bytes the KV stream allocates per
// application byte it carries. The client writes each batch straight
// into a send slab sized for it, the server reads the requests in place
// across segments and writes each reply straight into its own slab, so
// the stream allocates a little over one byte per byte carried: each
// byte's one slab, plus the heap pages the server's writes copy (1.13
// measured). When the client's batch was copied into the slab and each
// frame that straddled two segments into the server's reader buffer, it
// allocated 1.97.
const kvStreamByteBudget = 1.15

// TestKVStreamByteBudget runs the KV stream for a while, then measures
// TotalAlloc over 60 more batches against the application bytes both
// sides sent. It fails if the reader copies straddling frames again or
// a send copies into the slab what was written there already.
func TestKVStreamByteBudget(t *testing.T) {
	ks := newKVStream(t)
	ks.runBatches(10)
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
	if perByte > kvStreamByteBudget {
		t.Errorf("the KV stream allocated %.3f bytes per byte it carried, want <= %.2f", perByte, kvStreamByteBudget)
	}
}

// BenchmarkKVBatchRoundTrip measures one 1,000-request batch of the KV
// stream: the client writes the batch, the server parses, serves and
// answers every request, and the client verifies the replies.
func BenchmarkKVBatchRoundTrip(b *testing.B) {
	ks := newKVStream(b)
	ks.runBatches(10)
	b.ReportAllocs()
	b.ResetTimer()
	ks.runBatches(b.N)
	b.StopTimer()
	if errs := ks.set.ValidationErrors(); len(errs) > 0 {
		b.Fatalf("client errors: %v", errs[:min(3, len(errs))])
	}
}
