package main

import (
	"context"
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"nilicon/internal/simtime"
	"nilicon/internal/trace"
)

// run accumulates one workload run: the worlds it builds, its measured
// phases, and the samples the metrics pool across worlds. Virtual-time
// samples depend only on the seed; wall-clock samples on the machine.
type run struct {
	seed int64
	tr   *tracer // nil in untraced runs
	// ctx carries the traced run's pprof labels (phase=setup); measured
	// phases relabel to phase=measure and restore it on return.
	ctx context.Context

	worlds  int
	setupAt time.Time // when the current world's setup started
	setups  []float64 // wall seconds per world, start of build → measured phase
	refs    []float64 // reference kernel seconds before each world (calibrate.go)

	measWall time.Duration
	events   uint64
	rt       runtimeDelta
	// speeds holds one simulation-speed sample (virtual per wall second
	// of measured time) per unit; unitVirt/unitWall accumulate the
	// current unit.
	speeds   []float64
	unitVirt simtime.Duration
	unitWall time.Duration

	// End-to-end samples, pooled over worlds.
	lat         []float64 // ms; per request (open loop) or per batch (closed loop)
	closedLoop  bool
	completions int64
	wire        int64 // replication bytes during measured phases
	replVirt    simtime.Duration
	attempted   int
	failed      int
	errors      []string
	extra       map[string]float64

	layer layerAcc
	notes []string
}

func newRun(seed int64, traced bool) *run {
	r := &run{seed: seed, extra: map[string]float64{}, ctx: context.Background()}
	if traced {
		r.tr = &tracer{t0: time.Now()}
	}
	return r
}

// worldSeed derives the seed of the run's k-th world so every world
// draws fresh inputs while the whole run stays a function of the seed.
func (r *run) worldSeed(k int) int64 { return r.seed*1_000_003 + int64(k) }

// newWorld starts timing a world's setup and returns its id. The
// previous world's heap is collected first, outside any timed region:
// worlds run back to back in one process, and its garbage is not this
// world's cost. The reference kernel then samples the machine's speed.
func (r *run) newWorld() int {
	runtime.GC()
	r.refs = append(r.refs, calibrate().Seconds())
	r.worlds++
	r.setupAt = time.Now()
	return r.worlds
}

// call runs fn, a call into a layer that does not advance the clock,
// inside a span. sc may be nil while the world is being built.
func (r *run) call(id int, sc *simtime.ShardedClock, name string, fn func()) {
	r.tr.do(name, id, sc, fn)
}

// step advances a world's clock outside any measured phase (warmup,
// drain, the tail of a probe).
func (r *run) step(id int, sc *simtime.ShardedClock, name string, d simtime.Duration) {
	r.tr.do(name, id, sc, func() { sc.RunFor(d) })
}

// measure advances a world's clock by d as a measured phase. The first
// measured phase of a world ends that world's setup. In traced runs the
// phase carries a pprof label, so profile samples split by phase.
func (r *run) measure(id int, sc *simtime.ShardedClock, name string, d simtime.Duration) {
	if !r.setupAt.IsZero() {
		r.setups = append(r.setups, time.Since(r.setupAt).Seconds())
		r.setupAt = time.Time{}
	}
	var before runtimeSnap
	if r.tr != nil {
		before = readRuntime()
	}
	ev := sc.Executed()
	start := time.Now()
	r.tr.do(name, id, sc, func() {
		if r.tr == nil {
			sc.RunFor(d)
			return
		}
		pprof.Do(r.ctx, pprof.Labels("phase", "measure"), func(context.Context) { sc.RunFor(d) })
	})
	wall := time.Since(start)
	r.measWall += wall
	r.unitWall += wall
	r.unitVirt += d
	r.events += sc.Executed() - ev
	if r.tr != nil {
		r.rt.add(before, readRuntime())
	}
}

// endUnit closes a unit's simulation-speed sample. A unit covers every
// phase of its worlds, fault-free and after a fault alike, so the median
// over units keeps a burst of load elsewhere on the machine, which slows
// one unit, out of the run's result without favouring any phase.
func (r *run) endUnit() {
	if r.unitWall > 0 {
		r.speeds = append(r.speeds, r.unitVirt.Seconds()/r.unitWall.Seconds())
	}
	r.unitVirt, r.unitWall = 0, 0
}

// sample arms a gauge sampler on a world in traced runs only: the
// sampler's ticks are extra events, so untraced runs never pay for them.
func (r *run) sample(sc *simtime.ShardedClock, fn func()) {
	if r.tr == nil {
		return
	}
	simtime.NewTicker(sc.Root(), 10*simtime.Millisecond, fn)
}

// timeline returns a per-epoch timeline for a replicator in traced runs
// (nil otherwise: recording costs memory the end-to-end runs skip).
func (r *run) timeline(id int) *trace.Timeline {
	if r.tr == nil {
		return nil
	}
	tl := &trace.Timeline{}
	r.tr.keep(id, tl)
	return tl
}

func (r *run) fail(format string, args ...any) {
	r.errors = append(r.errors, fmt.Sprintf(format, args...))
}

// runtimeSnap is the Go runtime's allocation and GC CPU counters.
type runtimeSnap struct {
	allocBytes, allocs   uint64
	gcCPU, totalCPU, idl float64
}

var rtSamples = []rtmetrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readRuntime() runtimeSnap {
	rtmetrics.Read(rtSamples)
	return runtimeSnap{
		allocBytes: rtSamples[0].Value.Uint64(),
		allocs:     rtSamples[1].Value.Uint64(),
		gcCPU:      rtSamples[2].Value.Float64(),
		totalCPU:   rtSamples[3].Value.Float64(),
		idl:        rtSamples[4].Value.Float64(),
	}
}

// runtimeDelta sums runtime counters over measured phases.
type runtimeDelta struct {
	allocBytes, allocs uint64
	gcCPU, busyCPU     float64
}

func (d *runtimeDelta) add(a, b runtimeSnap) {
	d.allocBytes += b.allocBytes - a.allocBytes
	d.allocs += b.allocs - a.allocs
	d.gcCPU += b.gcCPU - a.gcCPU
	d.busyCPU += (b.totalCPU - b.idl) - (a.totalCPU - a.idl)
}

// peakRSSMB is the process's maximum resident set size (getrusage).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
