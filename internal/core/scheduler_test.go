package core

import (
	"testing"

	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
)

func newTestScheduler() (*simtime.Clock, *simnet.Link, *TransferScheduler) {
	clock := simtime.NewClock()
	link := simnet.NewLink(clock, 50*simtime.Microsecond, 1_250_000_000) // 10 Gb/s
	return clock, link, NewTransferScheduler(clock, link)
}

// A lone flow must see essentially the delivery time a single monolithic
// Link.Transfer would give: chunking may not add latency (only the
// per-chunk integer rounding of serialization times, nanoseconds).
func TestSchedulerSingleFlowMatchesLink(t *testing.T) {
	const size = 10 << 20
	clock, _, sched := newTestScheduler()
	var schedDone simtime.Time
	sched.SubmitBytes("repl-1", size, func() { schedDone = clock.Now() }, nil)
	clock.RunFor(simtime.Second)

	refClock := simtime.NewClock()
	refLink := simnet.NewLink(refClock, 50*simtime.Microsecond, 1_250_000_000)
	var refDone simtime.Time
	refLink.Transfer(size, func() { refDone = refClock.Now() })
	refClock.RunFor(simtime.Second)

	if schedDone == 0 || refDone == 0 {
		t.Fatal("transfer never delivered")
	}
	diff := schedDone.Sub(refDone)
	if diff < 0 {
		diff = -diff
	}
	if diff > simtime.Microsecond {
		t.Fatalf("chunked delivery at %v, monolithic at %v", schedDone, refDone)
	}
}

// Three concurrent replicators: a flow with a small incremental image
// must not be stuck behind another flow's huge transfer (round-robin at
// chunk granularity, not FIFO at transfer granularity).
func TestSchedulerFairnessSmallNotStarved(t *testing.T) {
	clock, link, sched := newTestScheduler()
	done := map[string]simtime.Time{}
	mark := func(id string) func() { return func() { done[id] = clock.Now() } }

	sched.SubmitBytes("repl-1", 64<<20, mark("big"), nil) // 64 MiB ≈ 54 ms serialization
	sched.SubmitBytes("repl-2", 512<<10, mark("small-2"), nil)
	sched.SubmitBytes("repl-3", 512<<10, mark("small-3"), nil)
	clock.RunFor(simtime.Second)

	for id, at := range done {
		if at == 0 {
			t.Fatalf("%s never delivered", id)
		}
	}
	if done["small-2"] >= done["big"] || done["small-3"] >= done["big"] {
		t.Fatalf("small transfers starved: big=%v small-2=%v small-3=%v",
			done["big"], done["small-2"], done["small-3"])
	}
	// The small flows interleave near the front: they must finish within
	// a few milliseconds, not after the big flow's tens of milliseconds.
	if done["small-2"] > simtime.Time(10*simtime.Millisecond) {
		t.Fatalf("small-2 delivered at %v, want within ~10ms", done["small-2"])
	}
	if link.BytesSent() != 64<<20+2*(512<<10) {
		t.Fatalf("link bytes = %d", link.BytesSent())
	}
}

// Three equal flows submitted together must finish within one chunk's
// serialization of each other.
func TestSchedulerFairnessEqualFlows(t *testing.T) {
	clock, _, sched := newTestScheduler()
	done := map[string]simtime.Time{}
	for _, id := range []string{"repl-1", "repl-2", "repl-3"} {
		id := id
		sched.SubmitBytes(id, 8<<20, func() { done[id] = clock.Now() }, nil)
	}
	clock.RunFor(simtime.Second)

	var min, max simtime.Time
	for _, at := range done {
		if at == 0 {
			t.Fatal("flow never delivered")
		}
		if min == 0 || at < min {
			min = at
		}
		if at > max {
			max = at
		}
	}
	if len(done) != 3 {
		t.Fatalf("deliveries = %d", len(done))
	}
	// One 256 KiB chunk serializes in ≈210 µs at 10 Gb/s.
	if spread := max.Sub(min); spread > simtime.Millisecond {
		t.Fatalf("equal flows finished %v apart, want within ~2 chunks", spread)
	}
}

// Requests within one flow stay FIFO.
func TestSchedulerFlowFIFO(t *testing.T) {
	clock, _, sched := newTestScheduler()
	var order []int
	sched.SubmitBytes("repl-1", 1<<20, func() { order = append(order, 1) }, nil)
	sched.SubmitBytes("repl-1", 1<<20, func() { order = append(order, 2) }, nil)
	sched.SubmitBytes("repl-1", 1<<20, func() { order = append(order, 3) }, nil)
	clock.RunFor(simtime.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("delivery order = %v", order)
	}
}

// A link outage mid-stream must not wedge the scheduler, and the cut
// transfer's completion callback must never fire (a half-streamed
// checkpoint is not acknowledgeable).
func TestSchedulerLinkDownDropsDelivery(t *testing.T) {
	clock, link, sched := newTestScheduler()
	var cutDone, laterDone bool
	sched.SubmitBytes("repl-1", 32<<20, func() { cutDone = true }, nil)
	clock.RunFor(5 * simtime.Millisecond) // mid-stream (≈27 ms serialization)
	link.SetDown(true)
	clock.RunFor(100 * simtime.Millisecond)
	if cutDone {
		t.Fatal("cut transfer delivered")
	}
	if sched.QueuedBytes() != 0 {
		t.Fatalf("scheduler wedged: %d bytes still queued", sched.QueuedBytes())
	}
	link.SetDown(false)
	sched.SubmitBytes("repl-2", 1<<20, func() { laterDone = true }, nil)
	clock.RunFor(100 * simtime.Millisecond)
	if cutDone {
		t.Fatal("cut transfer delivered after link restore")
	}
	if !laterDone {
		t.Fatal("scheduler did not resume after link restore")
	}
}

// Cancelling a busy flow — one chunk on the wire, more chunks and a
// second request queued — drops its queue without firing either
// callback of either request, and a second flow on the same link keeps
// delivering.
func TestSchedulerCancelBusyFlow(t *testing.T) {
	clock, _, sched := newTestScheduler()
	fired := 0
	cb := func() { fired++ }
	const chunk = xferChunkBytes
	sched.SubmitReq("fenced", []int64{chunk, chunk, chunk}, cb, cb)
	sched.SubmitReq("fenced", []int64{chunk}, cb, cb)
	var otherDone bool
	sched.SubmitBytes("other", 4*chunk, func() { otherDone = true }, nil)
	if sched.Flows() != 2 {
		t.Fatalf("flows = %d, want 2", sched.Flows())
	}
	// The fenced flow's first chunk is serializing; three of its chunks
	// and the other flow's four are queued.
	if got, want := sched.QueuedBytes(), int64(7*chunk); got != want {
		t.Fatalf("queued %d bytes before the cancel, want %d", got, want)
	}

	sched.CancelFlow("fenced")
	if got, want := sched.QueuedBytes(), int64(4*chunk); got != want {
		t.Fatalf("queued %d bytes after the cancel, want the other flow's %d", got, want)
	}
	if sched.Flows() != 1 {
		t.Fatalf("flows = %d after the cancel, want 1", sched.Flows())
	}
	clock.RunFor(100 * simtime.Millisecond)
	if fired != 0 {
		t.Fatalf("cancelled flow fired %d callbacks", fired)
	}
	if !otherDone {
		t.Fatal("the other flow stopped delivering after the cancel")
	}
	if sched.Flows() != 0 || sched.QueuedBytes() != 0 {
		t.Fatalf("flows = %d, queued = %d after draining", sched.Flows(), sched.QueuedBytes())
	}
}

func TestSchedulerZeroByteTransfer(t *testing.T) {
	clock, _, sched := newTestScheduler()
	fired := false
	sched.SubmitReq("repl-1", nil, func() { fired = true }, nil)
	clock.RunFor(simtime.Millisecond)
	if !fired {
		t.Fatal("empty transfer never completed")
	}
}

// Delta-compressed epochs produce wildly variable chunk sizes (a 24-byte
// zero frame next to a 4 KiB full frame). A flow streaming tiny delta
// chunks must not be starved by a flow streaming full-size chunks: the
// round-robin is per chunk, so a delta image of K frames pays at most K
// bulk-chunk serializations (~210 µs each) before delivery, regardless of
// how many megabytes the bulk flow still has queued.
func TestSchedulerFairnessVariableDeltaChunks(t *testing.T) {
	clock, link, sched := newTestScheduler()
	done := map[string]simtime.Time{}
	mark := func(id string) func() { return func() { done[id] = clock.Now() } }

	// Bulk flow: a full-frame image, 128 × 256 KiB chunks (≈27 ms).
	var bulk []int64
	for i := 0; i < 128; i++ {
		bulk = append(bulk, 256<<10)
	}
	// Delta flow: 40 tiny frames, 24..3608 bytes (≈60 µs of payload).
	var deltaChunks []int64
	var deltaBytes int64
	for i := 0; i < 40; i++ {
		sz := int64(24 + (i%8)*512)
		deltaChunks = append(deltaChunks, sz)
		deltaBytes += sz
	}
	sched.SubmitReq("repl-bulk", bulk, mark("bulk"), nil)
	sched.SubmitReq("repl-delta", deltaChunks, mark("delta"), nil)
	clock.RunFor(simtime.Second)

	if done["bulk"] == 0 || done["delta"] == 0 {
		t.Fatalf("deliveries missing: %v", done)
	}
	if done["delta"] >= done["bulk"] {
		t.Fatalf("delta flow starved: delta=%v bulk=%v", done["delta"], done["bulk"])
	}
	// 40 delta chunks interleave with 40 bulk chunks (~210 µs each), so
	// the delta image lands around 8.5 ms — well before the bulk stream's
	// ≈27 ms, and never FIFO'd behind the whole bulk transfer.
	if done["delta"] > simtime.Time(12*simtime.Millisecond) {
		t.Fatalf("delta flow delivered at %v, want within ~12ms", done["delta"])
	}
	if got := link.BytesSent(); got != 128*(256<<10)+deltaBytes {
		t.Fatalf("link bytes = %d, want %d", got, 128*(256<<10)+deltaBytes)
	}
}

// Drop accounting with variable-size chunks: when the link goes down
// mid-stream, every in-flight transfer's dropped callback fires exactly
// once, done never fires for them, and the queue drains completely.
func TestSchedulerDropAccountingVariableChunks(t *testing.T) {
	clock, link, sched := newTestScheduler()
	var doneCnt, dropCnt int

	var bulk []int64
	for i := 0; i < 128; i++ {
		bulk = append(bulk, 256<<10) // ≈27 ms serialization
	}
	var tiny []int64
	for i := 0; i < 5000; i++ {
		tiny = append(tiny, 24+int64(i%5)*997) // ≈10 ms of ragged chunks
	}
	sched.SubmitReq("repl-bulk", bulk, func() { doneCnt++ }, func() { dropCnt++ })
	sched.SubmitReq("repl-delta", tiny, func() { doneCnt++ }, func() { dropCnt++ })

	clock.RunFor(2 * simtime.Millisecond) // both mid-stream
	link.SetDown(true)
	clock.RunFor(100 * simtime.Millisecond)

	if doneCnt != 0 {
		t.Fatalf("done fired %d times for cut transfers", doneCnt)
	}
	if dropCnt != 2 {
		t.Fatalf("dropped fired %d times, want exactly once per transfer", dropCnt)
	}
	if q := sched.QueuedBytes(); q != 0 {
		t.Fatalf("scheduler wedged: %d bytes still queued", q)
	}

	// The scheduler must keep working afterwards, and completed transfers
	// must never also report a drop.
	link.SetDown(false)
	sched.SubmitReq("repl-delta", []int64{24, 4120, 56}, func() { doneCnt++ }, func() { dropCnt++ })
	clock.RunFor(100 * simtime.Millisecond)
	if doneCnt != 1 {
		t.Fatalf("post-outage transfer: done fired %d times", doneCnt)
	}
	if dropCnt != 2 {
		t.Fatalf("post-outage transfer also dropped: %d", dropCnt)
	}
}

// done and dropped are mutually exclusive: a done callback that takes
// the link down runs before the drop watcher of the same chunk (same
// delivery instant), and that watcher must not then report the already
// delivered request as lost — its receiver owns what it was sent.
func TestSchedulerDoneThatDownsLinkNeverDrops(t *testing.T) {
	for _, chunks := range [][]int64{{4096}, {256 << 10, 256 << 10, 1000}} {
		clock, link, sched := newTestScheduler()
		var doneCnt, dropCnt int
		sched.SubmitReq("repl-1", chunks, func() {
			doneCnt++
			link.SetDown(true)
		}, func() { dropCnt++ })
		clock.RunFor(100 * simtime.Millisecond)
		if doneCnt != 1 {
			t.Fatalf("%d chunks: done fired %d times, want 1", len(chunks), doneCnt)
		}
		if dropCnt != 0 {
			t.Fatalf("%d chunks: dropped fired %d times after done", len(chunks), dropCnt)
		}
		if !link.Down() {
			t.Fatal("done callback did not take the link down")
		}
	}
}

// CancelFlow settles a request whose last chunk is already on the wire:
// neither callback fires, at delivery or later, and the record is
// handed out again once the wire lets go of it. The one-chunk request
// is cancelled the instant it goes on the link (behind another flow's
// chunk, so the test can name its record), the three-chunk one while
// its last chunk is in flight. Reset, which cancels every flow, settles
// it the same way.
func TestSchedulerCancelSettlesOnWireRequest(t *testing.T) {
	const chunk = xferChunkBytes
	for _, tc := range []struct {
		name    string
		blocker bool    // another flow's chunk goes on the link first
		chunks  []int64 // the cancelled request
		wait    simtime.Duration
	}{
		{"one chunk, cancelled as it goes on the wire", true, []int64{4096}, 210 * simtime.Microsecond},
		{"three chunks, last on the wire", false, []int64{chunk, chunk, chunk}, 500 * simtime.Microsecond},
	} {
		for _, reset := range []bool{false, true} {
			name := tc.name + ", CancelFlow"
			if reset {
				name = tc.name + ", Reset"
			}
			t.Run(name, func(t *testing.T) {
				clock, _, sched := newTestScheduler()
				if tc.blocker {
					sched.SubmitBytes("other", chunk, nil, nil)
				}
				var done, dropped int
				sched.SubmitReq("fenced", tc.chunks, func() { done++ }, func() { dropped++ })
				req := sched.flows["fenced"].reqs.Peek()
				clock.RunFor(tc.wait)
				if q, s := sched.QueuedBytes(), sched.SendingBytes(); q != 0 || s == 0 {
					t.Fatalf("queued %d, sending %d bytes at the cancel: want the last chunk on the wire alone", q, s)
				}
				if reset {
					sched.Reset()
				} else {
					sched.CancelFlow("fenced")
				}
				clock.RunFor(100 * simtime.Millisecond)
				if done != 0 || dropped != 0 {
					t.Fatalf("cancelled request fired done %d, dropped %d times", done, dropped)
				}
				// The record is free again: the next request is the same
				// record (its second chunk keeps it queued, where the test
				// can see it).
				sched.SubmitReq("next", []int64{1, 1}, nil, nil)
				if got := sched.flows["next"].reqs.Peek(); got != req {
					t.Fatal("the cancelled request's record did not go back to the pool")
				}
			})
		}
	}
}

// TestSchedulerRecyclesARequestWhoseDeliveryTheLinkDrops: the last
// chunk's delivery holds its request, and the delivery releases it. When
// the link discards that delivery, the last chunk's watch releases the
// hold instead, and only then, so the record goes back to the pool once
// in each order: an outage under the last chunk, a done callback that
// takes the link down after its delivery ran, and a cancel of the
// request on the wire followed by an outage. A second release would
// panic in pool.Refs.
func TestSchedulerRecyclesARequestWhoseDeliveryTheLinkDrops(t *testing.T) {
	for _, order := range []string{"outage", "done-then-down", "cancel-then-outage"} {
		t.Run(order, func(t *testing.T) {
			clock, link, sched := newTestScheduler()
			var done, dropped int
			sched.SubmitReq("repl", []int64{xferChunkBytes, xferChunkBytes}, func() {
				done++
				if order == "done-then-down" {
					link.SetDown(true)
				}
			}, func() { dropped++ })
			req := sched.flows["repl"].reqs.Peek()
			clock.RunFor(300 * simtime.Microsecond) // the second, last chunk is on the wire
			if q, s := sched.QueuedBytes(), sched.SendingBytes(); q != 0 || s == 0 {
				t.Fatalf("queued %d, sending %d bytes: want the last chunk on the wire alone", q, s)
			}
			switch order {
			case "outage":
				link.SetDown(true)
			case "cancel-then-outage":
				sched.CancelFlow("repl")
				link.SetDown(true)
			}
			clock.RunFor(100 * simtime.Millisecond)
			want := map[string][2]int{"outage": {0, 1}, "done-then-down": {1, 0}, "cancel-then-outage": {0, 0}}[order]
			if done != want[0] || dropped != want[1] {
				t.Fatalf("done fired %d, dropped %d times; want %d and %d", done, dropped, want[0], want[1])
			}
			link.SetDown(false)
			sched.SubmitReq("next", []int64{1, 1}, nil, nil)
			if got := sched.flows["next"].reqs.Peek(); got != req {
				t.Fatal("the request's record did not go back to the pool")
			}
		})
	}
}
