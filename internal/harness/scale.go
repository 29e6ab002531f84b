package harness

import (
	"fmt"

	"nilicon/internal/metrics"
	"nilicon/internal/simtime"
	"nilicon/internal/workloads"
)

// ScaleRow is one point of a §VII-C scalability sweep.
type ScaleRow struct {
	X          int // threads, clients, or processes
	Overhead   float64
	StopMean   simtime.Duration
	DirtyPages float64
}

// RunScaleThreads reproduces the streamcluster thread sweep (§VII-C):
// overhead grows from ≈23% at 1 thread to ≈52% at 32 as per-thread
// state, footprint and dirty pages grow.
func RunScaleThreads(threads []int, rc RunConfig) ([]ScaleRow, *metrics.Table) {
	return runScale("scale-threads", threads, []int{1, 2, 4, 8, 16, 32}, rc,
		func(n int, mode Mode, rc RunConfig) RunResult {
			return RunBatch(func() *workloads.Parsec {
				prof := workloads.Streamcluster().Profile()
				prof.ThreadsPer = n
				// Footprint grows with threads: 49K pages at 1 thread to
				// 111K at 32 in the paper; scaled 2× down here.
				prof.MemPages = 24500 + 31000*(n-1)/31
				// Fixed per-thread work so more threads do more total work
				// per epoch (dirty pages grow: 121 → 495 in the paper).
				prof.WorkUnits = 600 * n
				prof.UnitDirty = 4
				return workloads.NewParsec(prof)
			}, mode, rc)
		},
		"§VII-C scalability: streamcluster threads (paper: 23%→52%)",
		"Threads", "Overhead", "Stop", "DirtyPages")
}

// RunScaleClients reproduces the lighttpd client sweep (§VII-C): the
// overhead rises from ≈34% (≤32 clients) to ≈45% (128), driven almost
// entirely by socket-state checkpointing time (1.2 ms → 13 ms).
func RunScaleClients(clients []int, rc RunConfig) ([]ScaleRow, *metrics.Table) {
	return runScale("scale-clients", clients, []int{2, 8, 32, 128}, rc,
		func(n int, mode Mode, rc RunConfig) RunResult {
			rc.Clients = n
			return RunServer(workloads.Lighttpd, mode, rc)
		},
		"§VII-C scalability: lighttpd clients (paper: ≈34%→45%; socket collect 1.2ms→13ms)",
		"Clients", "Overhead", "Stop")
}

// RunScaleProcs reproduces the lighttpd process sweep (§VII-C): overhead
// 23% at 1 process to 63% at 8, driven by per-process state retrieval.
func RunScaleProcs(procs []int, rc RunConfig) ([]ScaleRow, *metrics.Table) {
	return runScale("scale-procs", procs, []int{1, 2, 4, 8}, rc,
		func(n int, mode Mode, rc RunConfig) RunResult {
			return RunServer(func() *workloads.Server {
				prof := workloads.Lighttpd().Profile()
				prof.Procs = n
				// More processes need more clients to saturate (2 → 8 in
				// the paper as processes go 1 → 8).
				prof.Clients = 8 * n
				return workloads.NewServer(prof)
			}, mode, rc)
		},
		"§VII-C scalability: lighttpd processes (paper: 23%→63%)",
		"Processes", "Overhead", "Stop", "DirtyPages")
}

// runScale is the one §VII-C sweep runner: at every point (defaults
// when points is empty) it runs the workload stock and under NiLiCon,
// and tabulates the overhead, mean stop time and dirty pages per epoch
// under the given title. cols names the table's columns, a prefix of
// the point, Overhead, Stop and DirtyPages.
func runScale(name string, points, defaults []int, rc RunConfig,
	run func(n int, mode Mode, rc RunConfig) RunResult, title string, cols ...string) ([]ScaleRow, *metrics.Table) {
	rc.defaults()
	if len(points) == 0 {
		points = defaults
	}
	var rows []ScaleRow
	for _, n := range points {
		rc.Progress.printf("%s: %d...", name, n)
		stock := run(n, Stock, rc)
		nl := run(n, NiLiCon, rc)
		rows = append(rows, ScaleRow{
			X:          n,
			Overhead:   Overhead(stock, nl),
			StopMean:   simtime.Duration(nl.StopMean * float64(simtime.Second)),
			DirtyPages: nl.DirtyMean,
		})
	}
	tb := metrics.NewTable(title, cols...)
	for _, r := range rows {
		cells := []string{fmt.Sprint(r.X),
			fmt.Sprintf("%.0f%%", r.Overhead*100),
			fmt.Sprintf("%.1fms", float64(r.StopMean)/1e6),
			fmt.Sprintf("%.0f", r.DirtyPages)}
		tb.AddRow(cells[:len(cols)]...)
	}
	return rows, tb
}
