package traffic

import (
	"runtime"
	"testing"
	"unsafe"

	"nilicon/internal/metrics"
	"nilicon/internal/simtime"
)

// TestEmptyWindowsAllocateNoHistogram samples 10,000 windows in which
// nothing completes: each may cost its counters, but not a latency
// histogram. A completion still lands in its window's histogram.
func TestEmptyWindowsAllocateNoHistogram(t *testing.T) {
	const n = 10000
	slo := SLO{Window: 10 * simtime.Millisecond, Target: 5 * simtime.Millisecond}
	j := NewJudge(slo)
	j.Start(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		j.Sample(simtime.Time(i)*simtime.Time(slo.Window), Factors{Fence: true})
	}
	runtime.ReadMemStats(&after)
	perWindow := float64(after.TotalAlloc-before.TotalAlloc) / n
	hist := float64(unsafe.Sizeof(metrics.Histogram{}))
	t.Logf("%.0f bytes per empty window (a histogram is %.0f)", perWindow, hist)
	if perWindow > hist/4 {
		t.Errorf("an empty window allocated %.0f bytes, want well under a histogram's %.0f", perWindow, hist)
	}

	at := simtime.Time(3 * slo.Window)
	j.Arrived(at)
	j.Completed(at, at.Add(8*simtime.Millisecond))
	rep := j.Finish(simtime.Time(n) * simtime.Time(slo.Window))
	if w := rep.Windows[3]; w.P999 < 8 || !w.Violation || rep.Completions != 1 {
		t.Errorf("window 3 = %+v with %d completions, want the 8 ms completion judged a violation", w, rep.Completions)
	}
}
