package main

import (
	"os"
	"path/filepath"
	"testing"

	"nilicon/bench/spec"
	"nilicon/internal/simtime"
	"nilicon/internal/workloads"
)

const ms = simtime.Millisecond

// tinyWorkloads runs every workload's code path at a size that keeps
// this package's tests well under 20 s and 500 MB: the same functions
// the benchmark runs, on smaller servers and shorter windows.
var tinyWorkloads = []workload{
	{name: "ycsb", unitWall: 1e9, run: func(r *run, n int) {
		runYCSB(r, ycsbShape{mk: workloads.SSDB, warmup: 300 * ms, stock: 300 * ms, measure: 1200 * ms}, n)
	}},
	{name: "kv-replay", unitWall: 1e9, run: func(r *run, n int) {
		runKVReplay(r, kvShape{probes: 2, probeFor: 300 * ms, nominal: 4000, measure: 400 * ms}, n)
	}},
	{name: "failover", unitWall: 1e9, run: func(r *run, n int) {
		runFailover(r, failoverShape{mk: newKV, before: 300 * ms, after: 200 * ms, drain: 600 * ms}, n)
	}},
	{name: "fleet", unitWall: 1e9, run: func(r *run, n int) {
		runFleet(r, fleetShape{chains: 6, workers: 6, spares: 3, warmup: 500 * ms,
			before: 300 * ms, after: 200 * ms, cap: 10 * simtime.Second, tail: 200 * ms}, n)
	}},
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, wl := range tinyWorkloads {
		res, err := runWorkload(wl, 1, 1, false, "")
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if !res.Correct || res.Failed > 0 {
			t.Errorf("%s: correct=%v failed=%d errors=%v", wl.name, res.Correct, res.Failed, res.Errors)
		}
		for _, m := range spec.EndToEnd {
			if v, ok := res.Metrics[m.Name]; !ok || !(v.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v (present %v), want > 0", wl.name, m.Name, v.Value, ok)
			}
		}
	}
}

// TestSmokeTraced checks the traced run's artifacts and that every
// per-layer metric is reported.
func TestSmokeTraced(t *testing.T) {
	dir := t.TempDir()
	wl := tinyWorkloads[2] // failover: exercises the recovery breakdown too
	res, err := runWorkload(wl, 1, 1, true, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("errors: %v", res.Errors)
	}
	for _, m := range spec.PerLayer {
		if _, ok := res.Metrics[m.Name]; !ok {
			t.Errorf("per-layer metric %s missing", m.Name)
		}
	}
	if v := res.Metrics["criu.restore_pct"].Value; !(v > 0 && v < 100) {
		t.Errorf("criu.restore_pct = %v, want a share of the outage", v)
	}
	for _, f := range []string{"cpu.pprof", "spans.jsonl", "timeline-w1.csv"} {
		if st, err := os.Stat(filepath.Join(dir, wl.name, f)); err != nil || st.Size() == 0 {
			t.Errorf("%s: %v", f, err)
		}
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []span{
		{ID: 1, WallStart: 0, WallEnd: 100},
		{ID: 2, Parent: 1, WallStart: 10, WallEnd: 40},
		{ID: 3, Parent: 1, WallStart: 50, WallEnd: 70},
		{ID: 4, Parent: 3, WallStart: 55, WallEnd: 60},
	}
	selfTimes(spans)
	for i, want := range []int64{50, 30, 15, 5} {
		if spans[i].SelfNs != want {
			t.Errorf("span %d self = %d, want %d", spans[i].ID, spans[i].SelfNs, want)
		}
	}
}
