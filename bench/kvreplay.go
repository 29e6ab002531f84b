package main

import (
	"fmt"

	"nilicon/internal/core"
	"nilicon/internal/simtime"
	"nilicon/internal/workloads"
)

// kv-replay: the bench's small kv server under HyCoR-style record/replay
// (core.ReplayOpts) with the default lease, driven open-loop. Output
// release waits for log-segment commit, not epoch commit, so latency is
// set by core's log path and simnet, and capacity by how much CPU the
// stop phase and logging take from the server.
const (
	kvPages   = 2048
	kvRecords = 4096
	kvClients = 8
	// kvWarmup covers the initial full synchronization.
	kvWarmup = 500 * simtime.Millisecond
	// A rate passes when p99.9 stays within kvLimit and at most
	// kvBacklog of its requests are unanswered kvSettle after the last
	// arrival.
	kvLimit   = 10.0 // ms
	kvBacklog = 0.001
	kvSettle  = 500 * simtime.Millisecond
)

type kvShape struct {
	probes   int              // bisection probes over [kvMinRate, kvMaxRate]
	probeFor simtime.Duration // arrivals per probe
	nominal  float64          // req/s of the measured runs
	measure  simtime.Duration // arrivals per measured run
}

const (
	kvMinRate = 2000.0
	kvMaxRate = 64000.0
)

func newKV() *workloads.Server { return workloads.NewServer(kvProfile(kvPages, kvRecords)) }

func kvConfig() *core.Config {
	cfg := core.DefaultConfig()
	cfg.Opts = core.ReplayOpts()
	cfg.Lease = core.DefaultLease()
	return &cfg
}

// runKVReplay first searches the highest rate that meets the latency
// limit without a growing backlog, then measures units runs at the
// nominal rate.
func runKVReplay(r *run, sh kvShape, units int) {
	probe := 0
	best, _ := bisect(kvMinRate, kvMaxRate, sh.probes, func(rate float64) bool {
		probe++
		w := kvWorld(r, rate, sh.probeFor, r.worldSeed(1000+probe), false)
		lat := append([]float64(nil), w.lat...)
		ok := percentile(lat, 99.9) <= kvLimit && float64(w.missing) <= kvBacklog*float64(w.attempted)
		r.notes = append(r.notes, fmt.Sprintf("probe %.0f req/s: p99.9=%.3fms unanswered=%d/%d pass=%v",
			rate, percentile(lat, 99.9), w.missing, w.attempted, ok))
		return ok
	})
	r.extra["max_rate_rps"] = best
	r.endUnit()
	for k := 0; k < units; k++ {
		kvWorld(r, sh.nominal, sh.measure, r.worldSeed(k), true)
		r.endUnit()
	}
}

// kvWorld runs one open-loop world at rate for d of arrivals plus the
// settle time, and returns the window of requests due during d. Only
// measured (nominal-rate) worlds feed the pooled samples.
func kvWorld(r *run, rate float64, d simtime.Duration, seed int64, measured bool) window {
	id := r.newWorld()
	var w *pairWorld
	var ol *openLoop
	r.call(id, nil, "kv.build", func() {
		w = newPairWorld(newKV, kvConfig())
		tr := poisson(seed, kvClients, rate, d, kvRecords)
		ol = newOpenLoop(w.cl.Clock, w.cl.NewClient, serverIP, kvProfile(kvPages, kvRecords).Port, tr, "10.2.0.")
	})
	if measured {
		w.repl.Timeline = r.timeline(id)
		r.sample(w.sc, func() {
			r.layer.inflightMax = max(r.layer.inflightMax, w.repl.InflightEpochs())
			r.layer.drbdMax = max(r.layer.drbdMax, w.cl.DRBDBackup.Buffered())
		})
	}
	r.step(id, w.sc, "warmup", kvWarmup)
	w.repl.ResetMeasurement()
	start := w.now()
	wire0, busy0, bbusy0 := w.wireBytes(), w.ctr.CPUBusy, w.repl.Backup.CPUBusy
	ol.Start(start)
	r.measure(id, w.sc, "measure", d)
	r.step(id, w.sc, "settle", kvSettle)
	end := w.now()

	if n := w.appErrors(); n > 0 {
		r.fail("kv: %d server errors, first: %s", n, w.srv.AppErrors()[0])
	}
	if !measured {
		win := ol.window(start, start.Add(d), end)
		if len(ol.errors) > 0 {
			r.fail("kv probe: %d client validation errors, first: %s", len(ol.errors), ol.errors[0])
		}
		return win
	}
	win := r.account(ol, start, start.Add(d), end)
	r.finish(id, w.sc, ol, end)
	r.wire += w.wireBytes() - wire0
	r.replVirt += d

	a := &r.layer
	a.virt += d
	a.epochs(w.repl.Timeline, start, start.Add(d))
	for _, s := range w.repl.LogCommitLatency.Samples() {
		a.logCommitMs = append(a.logCommitMs, s*1000)
	}
	a.ctrBusy += w.ctr.CPUBusy - busy0
	a.backupBusy += w.repl.Backup.CPUBusy - bbusy0
	a.utilVirt += d
	a.resyncs += w.repl.Resyncs.Value()
	a.appErrors += w.appErrors()
	for _, s := range w.ctr.Stack.Sockets() {
		a.retransmits += s.Retransmits()
	}
	return win
}
