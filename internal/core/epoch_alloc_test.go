package core_test

import (
	"runtime"
	"testing"

	"nilicon/internal/core"
	"nilicon/internal/simtime"
	"nilicon/internal/workloads"
)

// quietKV starts a kv server of 256 pages replicated over a chain of
// the given width (2 is the classic pair) with no client traffic, and
// runs it past the initial synchronization.
func quietKV(t *testing.T, width int) (*simtime.Clock, *core.Replicator) {
	t.Helper()
	clock := simtime.NewClock()
	views := core.NewChainViews(clock, width)
	ctr := views[0].NewProtectedContainer("kv", "10.0.0.10", 1)
	workloads.NewServer(workloads.Profile{
		Name: "kv", Procs: 1, ThreadsPer: 1, LibsPerProc: 2,
		MemPages: 256, Port: 6380,
		ReqCPU: 30 * simtime.Microsecond, ReqDirty: 2, Records: 512,
	}).Install(ctr)
	cfg := core.DefaultConfig()
	cfg.Lease = core.DefaultLease()
	repl := core.NewChainReplicator(views, ctr, cfg)
	repl.Start()
	clock.RunFor(simtime.Second)
	return clock, repl
}

// TestQuietEpochAllocationBudget bounds what a steady-state epoch
// allocates when nothing changes: the checkpoint shares every snapshot
// with the previous image, the epoch's events are bound once, and the
// sends, acks, beats and barriers are recycled records. What is left per
// replica epoch is the epoch run, the image and its process list (and a
// chain replica's clone of them).
func TestQuietEpochAllocationBudget(t *testing.T) {
	const (
		maxAllocs = 10  // per replica epoch
		maxBytes  = 800 // per replica epoch
		epochs    = 200
	)
	for _, width := range []int{2, 3} {
		clock, repl := quietKV(t, width)
		interval := core.DefaultConfig().EpochInterval
		clock.RunFor(10 * interval) // every free list at its steady size
		e0 := repl.Epochs()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < epochs; i++ {
			clock.RunFor(interval)
		}
		runtime.ReadMemStats(&after)
		if got := repl.Epochs() - e0; got < epochs/2 {
			t.Fatalf("width %d: %d epochs in %d intervals", width, got, epochs)
		}
		n := float64(repl.Epochs()-e0) * float64(width-1)
		allocs := float64(after.Mallocs-before.Mallocs) / n
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
		t.Logf("width %d: %.1f allocations, %.0f B per replica epoch", width, allocs, bytes)
		if allocs > maxAllocs || bytes > maxBytes {
			t.Errorf("width %d: %.1f allocations and %.0f B per replica epoch, want at most %d and %d B",
				width, allocs, bytes, maxAllocs, maxBytes)
		}
	}
}
