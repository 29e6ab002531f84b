package main

import (
	"bytes"
	"context"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"nilicon/internal/simtime"
	"nilicon/internal/workloads"
)

func TestOutageFrom(t *testing.T) {
	for _, tc := range []struct {
		name      string
		due, done []int64
		at, cap   int64
		want      int64
	}{
		{"first completion after the fault", []int64{10, 20, 30}, []int64{12, 50, 45}, 15, 100, 30},
		{"requests due before the fault do not end it", []int64{10, 20}, []int64{90, 40}, 15, 100, 25},
		{"a request due exactly at the fault counts", []int64{15}, []int64{16}, 15, 100, 1},
		{"nothing completes: capped at the window", []int64{20, 30}, []int64{0, 0}, 15, 100, 85},
		{"completion past the cap is capped", []int64{20}, []int64{130}, 15, 100, 85},
		{"no request due after the fault: capped", []int64{10}, []int64{12}, 15, 100, 85},
	} {
		if got := outageFrom(tc.at, tc.due, tc.done, tc.cap); got != tc.want {
			t.Errorf("%s: outage = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestBisectMonotoneCurve(t *testing.T) {
	const lo, hi, probes = 2000.0, 64000.0, 7
	step := math.Pow(hi/lo, 1/math.Pow(2, probes)) // final relative resolution
	for _, capacity := range []float64{1000, 2500, 11314, 26909, 40000, 63000, 70000} {
		pass := func(rate float64) bool { return rate <= capacity }
		best, tried := bisect(lo, hi, probes, pass)
		if len(tried) != probes {
			t.Fatalf("capacity %v: %d probes, want %d", capacity, len(tried), probes)
		}
		switch {
		case capacity < lo*step:
			// Below the first reachable probe nothing passes.
			if best != 0 && best > capacity {
				t.Errorf("capacity %v: best %v exceeds it", capacity, best)
			}
		case best > capacity:
			t.Errorf("capacity %v: best %v passed above capacity", capacity, best)
		case capacity < hi/step && best < capacity/(step*1.001):
			t.Errorf("capacity %v: best %v is more than one step (x%.4f) below", capacity, best, step)
		}
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		want, need float64
	}{
		{10000, 99.9, 99.9},
		{9999, 99.9, 99},
		{336, 95, 95},
		{150, 95, 90},
		{240176, 99.9, 99.9},
		{50, 99.9, 50},
	} {
		got := tailPercentile(tc.n, tc.want)
		if got != tc.need {
			t.Errorf("tailPercentile(%d, %v) = %v, want %v", tc.n, tc.want, got, tc.need)
		}
		if got != 50 && float64(tc.n)*(100-got)/100 < 10-1e-9 {
			t.Errorf("tailPercentile(%d) = %v leaves fewer than ten samples beyond", tc.n, got)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := percentile(xs, 50); got != 2.5 {
		t.Errorf("p50 = %v, want 2.5", got)
	}
	if got := percentile(xs, 100); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
}

func TestLayerOfInnermostInternalFrame(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "nilicon/internal/criu.(*Engine).Checkpoint", "nilicon/internal/core.(*epochRun).freezeCollect"}, "criu"},
		{[]string{"runtime.mallocgc", "nilicon/internal/simnet.(*Socket).Send", "nilicon/internal/workloads.(*Server).respond"}, "simnet"},
		{[]string{"nilicon/internal/simtime.(*ShardedClock).runLadder.func1", "main.main"}, "simtime"},
		{[]string{"nilicon/internal/metrics.(*Stream).Add", "nilicon/internal/core.(*epochRun).recordStop"}, "other"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"main.(*run).measure", "runtime.main"}, "runtime"},
		{nil, "runtime"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

//go:noinline
func spinFor(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

// TestDecodeProfileReadsLabelsAndStacks decodes a real CPU profile of a
// labeled busy loop.
func TestDecodeProfileReadsLabelsAndStacks(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	pprof.Do(context.Background(), pprof.Labels("phase", "measure"), func(context.Context) { spinFor(300 * time.Millisecond) })
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for _, fn := range s.stack {
			if fn == "nilicon/bench.spinFor" && s.labels["phase"] == "measure" && s.count > 0 {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no labeled sample of spinFor among %d samples", len(samples))
	}
	if _, err := decodeProfile([]byte{0x12, 0xff}); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

func TestDecodeValue(t *testing.T) {
	v := append(workloads.ValueFor(42, 7, valueSize), make([]byte, 1024-valueSize)...)
	key, version, ok := decodeValue(v)
	if !ok || key != 42 || version != 7 {
		t.Fatalf("decodeValue = %d, %d, %v; want 42, 7, true", key, version, ok)
	}
	v[20] ^= 1
	if _, _, ok := decodeValue(v); ok {
		t.Fatal("a corrupted value decoded")
	}
}

func TestWrapSafeGap(t *testing.T) {
	const rev1 = 1 << 26 // one level-1 revolution of the timing wheel, ns
	for _, gap := range []int64{0, 1000, 30_000_000, rev1 - 400_000, rev1 - 1024, rev1 - 1, 17_150_000_000} {
		got := wrapSafeGap(gap)
		for l := 1; l < 4; l++ {
			rev := int64(1024) << (8 * (l + 1))
			if got >= rev-int64(1024)<<(8*l)-2048 && got < rev {
				t.Errorf("wrapSafeGap(%d) = %d, still in the level-%d band", gap, got, l)
			}
		}
		if got < gap || got-gap > 1<<20 && gap < 1<<30 {
			t.Errorf("wrapSafeGap(%d) = %d moved too far", gap, got)
		}
	}
}

// TestWrapSafeGapFiresOnTheEngine schedules, from a cursor at the last
// tick of a level-1 slot, an event one full level-1 revolution ahead
// after wrapSafeGap: the engine must fire it. (Unadjusted, the same
// delay never fires and the run never returns.)
func TestWrapSafeGapFiresOnTheEngine(t *testing.T) {
	sc := simtime.NewShardedClock(1)
	c := sc.Root()
	fired := false
	c.ScheduleAt(simtime.Time(255<<10), func() {
		c.Schedule(simtime.Duration(wrapSafeGap(65535<<10)), func() { fired = true })
	})
	done := make(chan struct{})
	go func() {
		sc.RunFor(simtime.Second)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("engine did not finish one virtual second")
	}
	if !fired {
		t.Fatal("event never fired")
	}
}
