// Package spec defines every metric the benchmark reports: name, unit,
// direction and regression bound. The benchmark and bench/cmp share it;
// a test keeps BENCHMARK.json in step with it.
package spec

import (
	"math"
	"sort"
)

// Metric describes one reported number. Bound is the share of the
// baseline median by which the metric may get worse before a change
// counts as a regression (0: any worsening counts; per-layer metrics
// carry no bound). Wall marks metrics measured in wall-clock terms;
// every other metric is virtual time or a count that repeats exactly
// for a seed.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Wall   bool
}

// EndToEnd are the user-visible metrics every workload reports: the
// BENCHMARK.json end_to_end list. Virtual-time bounds sit at least three
// times above the spread of each metric across seeds (README.md).
var EndToEnd = []Metric{
	{"tput_rps", "1/s", "higher", 0.02, false},
	{"resp_p50_ms", "ms", "lower", 0.02, false},
	{"resp_tail_ms", "ms", "lower", 0.02, false},
	{"resp_max_ms", "ms", "lower", 0.08, false},
	{"wire_mb_per_s", "MB/s", "lower", 0.02, false},
	{"sim_speed_x", "x", "higher", 0.24, true},
	{"peak_rss_mb", "MB", "lower", 0.15, true},
	{"setup_s", "s", "lower", 0.25, true},
}

// Extras are end-to-end metrics that only some workloads have. They are
// printed and compared by bench/cmp but stay out of the result line's
// list, which every workload must report in full and never as zero.
var Extras = []Metric{
	{"overhead_pct", "%", "lower", 0.02, false},
	{"max_rate_rps", "1/s", "higher", 0.03, false},
	// fleet-zonekill's median chain lost only a replica; its small
	// outage moves by a tenth with the kill's phase against the epochs.
	{"unavail_p50_ms", "ms", "lower", 0.30, false},
	{"unavail_max_ms", "ms", "lower", 0.05, false},
	{"reprotect_s", "s", "lower", 0.05, false},
	{"error_rate", "ratio", "lower", 0, false},
}

// SelfPkgs are the layers CPU-profile samples are charged to: "other"
// takes samples whose innermost repository frame is in any other
// internal package, "runtime" those with no repository frame at all.
var SelfPkgs = []string{
	"simtime", "simkernel", "criu", "simfs", "simdisk", "simnet",
	"container", "core", "cluster", "traffic", "workloads", "other", "runtime",
}

// PerLayer are the traced run's metrics: the BENCHMARK.json per_layer
// list, grouped by the layer that exports them.
var PerLayer = func() []Metric {
	ms := []Metric{
		{"simtime.events", "count", "lower", 0, false},
		{"simtime.events_per_s", "1/s", "higher", 0, true},
		{"simkernel.dirty_pages_per_epoch", "pages", "lower", 0, false},
		{"criu.memcopy_ms", "ms", "lower", 0, false},
		{"criu.sock_collect_ms", "ms", "lower", 0, false},
		{"criu.state_mb_per_epoch", "MB", "lower", 0, false},
		{"criu.restore_pct", "%", "lower", 0, false},
		{"simfs.writebacks_per_s", "1/s", "lower", 0, false},
		{"simdisk.drbd_buffered_max", "count", "lower", 0, false},
		{"simnet.arp_pct", "%", "lower", 0, false},
		{"simnet.resume_pct", "%", "lower", 0, false},
		{"simnet.retransmits", "count", "lower", 0, false},
		{"container.cpu_util", "cores", "lower", 0, false},
		{"core.epochs", "count", "higher", 0, false},
		{"core.stop_ms", "ms", "lower", 0, false},
		{"core.stage.Transfer_ms", "ms", "lower", 0, false},
		{"core.commit_mean_ms", "ms", "lower", 0, false},
		{"core.commit_p99_ms", "ms", "lower", 0, false},
		{"core.inflight_max", "count", "lower", 0, false},
		{"core.failover_pct", "%", "lower", 0, false},
		{"core.backup_util", "cores", "lower", 0, false},
		{"core.resyncs", "count", "lower", 0, false},
		{"cluster.failovers", "count", "lower", 0, false},
		{"cluster.fences", "count", "lower", 0, false},
		{"cluster.reprotects", "count", "lower", 0, false},
		{"cluster.reprotect_queue_max", "count", "lower", 0, false},
		{"traffic.completions", "count", "higher", 0, false},
		{"traffic.outstanding", "count", "lower", 0, false},
		{"traffic.violation_windows", "count", "lower", 0, false},
		{"workloads.client_errors", "count", "lower", 0, false},
		{"workloads.app_errors", "count", "lower", 0, false},
		{"workloads.resets", "count", "lower", 0, false},
		{"runtime.gc_cpu_pct", "%", "lower", 0, true},
		{"runtime.alloc_mb_per_vs", "MB/s", "lower", 0, true},
		{"runtime.allocs_per_epoch", "count", "lower", 0, true},
		{"sim.ns_per_epoch", "ns", "lower", 0, true},
		{"trace_overhead_pct", "%", "lower", 0, true},
	}
	for _, p := range SelfPkgs {
		ms = append(ms, Metric{p + ".self_pct", "%", "lower", 0, true})
	}
	return ms
}()

// Lookup finds a metric in any of the lists.
func Lookup(name string) (Metric, bool) {
	for _, list := range [][]Metric{EndToEnd, Extras, PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return Metric{}, false
}

// Median returns the median of xs (0 for none) without reordering xs.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Spread is how far apart repeated runs of one metric read: the
// distance between the first and third quartiles as a share of the
// median, with the quartiles computed exactly as Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method).
// A bound is only meaningful when it is wider than the spread. It
// returns 0 for fewer than two values or a zero median.
func Spread(xs []float64) float64 {
	ld := len(xs)
	if ld < 2 {
		return 0
	}
	s := sorted(xs)
	const n = 4
	quartile := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	med := Median(s)
	if med == 0 {
		return 0
	}
	return math.Abs(quartile(3)-quartile(1)) / math.Abs(med)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
