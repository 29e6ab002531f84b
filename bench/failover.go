package main

import (
	"fmt"

	"nilicon/bench/spec"
	"nilicon/internal/core"
	"nilicon/internal/faultinject"
	"nilicon/internal/simtime"
	"nilicon/internal/workloads"
)

// redis-failover: the paper's §VII-A fault (faultinject.FailStop cuts
// the primary off from clients and backup while it keeps running) hits
// replicated Redis under open-loop load, once per fresh world.
const (
	foClients = 8
	foRate    = 2000.0
	foWarmup  = simtime.Second
)

type failoverShape struct {
	mk     func() *workloads.Server
	before simtime.Duration // traffic before the fault's epoch
	after  simtime.Duration // arrivals continue this long past the fault
	drain  simtime.Duration // then no arrivals are counted, replies still are
}

func runFailover(r *run, sh failoverShape, worlds int) {
	var outages []float64
	for k := 0; k < worlds; k++ {
		outages = append(outages, failoverWorld(r, sh, r.worldSeed(k)))
		r.endUnit()
	}
	r.extra["unavail_p50_ms"] = spec.Median(outages)
	r.extra["unavail_max_ms"] = maxOf(outages)
}

// failoverWorld returns the world's client-observed outage in ms.
func failoverWorld(r *run, sh failoverShape, seed int64) float64 {
	cfg := core.DefaultConfig()
	cfg.Lease = core.DefaultLease()
	offset := epochOffset(seed)
	arrivals := sh.before + offset + sh.after

	id := r.newWorld()
	var w *pairWorld
	var ol *openLoop
	r.call(id, nil, "world.build", func() {
		w = newPairWorld(sh.mk, &cfg)
		tr := poisson(seed, foClients, foRate, arrivals, w.srv.Profile().Records)
		ol = newOpenLoop(w.cl.Clock, w.cl.NewClient, serverIP, w.srv.Profile().Port, tr, "10.2.0.")
	})
	w.repl.Timeline = r.timeline(id)
	r.sample(w.sc, func() {
		r.layer.inflightMax = max(r.layer.inflightMax, w.repl.InflightEpochs())
		r.layer.drbdMax = max(r.layer.drbdMax, w.cl.DRBDBackup.Buffered())
	})
	r.step(id, w.sc, "warmup", foWarmup)

	start := w.now()
	wire0, busy0, bbusy0 := w.wireBytes(), w.ctr.CPUBusy, w.repl.Backup.CPUBusy
	ol.Start(start)
	r.measure(id, w.sc, "measure.before", sh.before+offset)
	fault := w.now()
	busy, bbusy := w.ctr.CPUBusy-busy0, w.repl.Backup.CPUBusy-bbusy0
	r.call(id, w.sc, "faultinject.FailStop", func() { faultinject.FailStop(w.repl) })
	r.measure(id, w.sc, "measure.after", sh.after)
	r.step(id, w.sc, "drain", sh.drain)
	end := w.now()

	r.account(ol, start, start.Add(arrivals), end)
	r.finish(id, w.sc, ol, end)
	r.wire += w.wireBytes() - wire0
	r.replVirt += arrivals
	b := w.repl.Backup
	if !b.Recovered() || b.RecoverError() != nil || b.Recovery == nil || b.Recovery.NetworkLiveAt == 0 {
		r.fail("failover world %d: recovery never completed (err=%v)", id, b.RecoverError())
		return ol.outageMs(fault, end)
	}
	if n := w.appErrors(); n > 0 {
		r.fail("failover world %d: %d server errors", id, n)
	}
	outage := ol.outageMs(fault, end)
	ph := phasesOf(fault, *b.Recovery, outage)
	r.notes = append(r.notes, fmt.Sprintf("world %d: outage=%.3fms detect+agent=%.3fms restore=%.3fms arp=%.3fms resume=%.3fms",
		id, outage, ph.core, ph.restore, ph.arp, ph.resume))

	a := &r.layer
	a.virt += arrivals
	a.epochs(w.repl.Timeline, start, fault)
	a.ctrBusy += busy
	a.backupBusy += bbusy
	a.utilVirt += fault.Sub(start)
	a.resyncs += w.repl.Resyncs.Value()
	a.appErrors += w.appErrors()
	a.failovers = append(a.failovers, ph)
	return outage
}
