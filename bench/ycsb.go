package main

import (
	"fmt"

	"nilicon/internal/core"
	"nilicon/internal/simtime"
	"nilicon/internal/workloads"
)

// ycsbShape sizes one world pair of a closed-loop YCSB workload.
type ycsbShape struct {
	mk      func() *workloads.Server
	warmup  simtime.Duration // initial sync and client ramp, both worlds
	stock   simtime.Duration // measured unreplicated run (overhead base)
	measure simtime.Duration // measured replicated run
}

// runYCSB runs units world pairs: an unreplicated (Stock) twin whose
// throughput is the overhead base, then the same world under
// core.DefaultConfig, fault-free. The paper's batch client drives both:
// one client, 1000-request batches, three in flight, 50 % reads.
func runYCSB(r *run, sh ycsbShape, units int) {
	r.closedLoop = true
	var stockTput, replTput []float64
	for k := 0; k < units; k++ {
		seed := r.worldSeed(k)
		stockTput = append(stockTput, ycsbWorld(r, sh, nil, sh.stock, seed))
		cfg := core.DefaultConfig()
		replTput = append(replTput, ycsbWorld(r, sh, &cfg, sh.measure, seed))
		r.endUnit()
	}
	var lost []float64
	for k := range stockTput {
		lost = append(lost, 100*(1-replTput[k]/stockTput[k]))
		r.notes = append(r.notes, fmt.Sprintf("unit %d (client seed %d): Stock %.1f req/s, replicated %.1f req/s, overhead %.2f%%",
			k+1, r.worldSeed(k), stockTput[k], replTput[k], lost[k]))
	}
	r.extra["overhead_pct"] = mean(lost)
}

// ycsbWorld builds one world (replicated when cfg is non-nil), warms it
// up, measures it for d and returns its throughput. Only the replicated
// world feeds the pooled end-to-end samples.
func ycsbWorld(r *run, sh ycsbShape, cfg *core.Config, d simtime.Duration, seed int64) float64 {
	id := r.newWorld()
	var w *pairWorld
	var set *workloads.ClientSet
	name := "stock"
	if cfg != nil {
		name = "nilicon"
	}
	r.call(id, nil, name+".build", func() {
		w = newPairWorld(sh.mk, cfg)
		set = w.srv.NewClients(w.cl, serverIP, 0, seed)
	})
	if w.repl != nil {
		w.repl.Timeline = r.timeline(id)
		r.sample(w.sc, func() {
			r.layer.inflightMax = max(r.layer.inflightMax, w.repl.InflightEpochs())
			r.layer.drbdMax = max(r.layer.drbdMax, w.cl.DRBDBackup.Buffered())
		})
	}
	// The closed loop's completions are phase-locked to the epochs, so a
	// window starting at a round time would count the same requests on
	// every seed.
	r.step(id, w.sc, "warmup", sh.warmup+epochOffset(seed))

	set.BeginWindow()
	lat0, done0 := set.Latencies.N(), set.Completed
	wire0, wb0 := w.wireBytes(), w.ctr.FS.Writebacks()
	busy0 := w.ctr.CPUBusy
	var bbusy0 simtime.Duration
	if w.repl != nil {
		bbusy0 = w.repl.Backup.CPUBusy
	}
	from := w.now()
	r.measure(id, w.sc, "measure", d)
	tput := set.WindowThroughput()

	if errs := len(set.ValidationErrors()); errs > 0 {
		r.fail("%s %s: %d client validation errors, first: %s", w.srv.Profile().Name, name, errs, set.ValidationErrors()[0])
	}
	if n := w.appErrors(); n > 0 {
		r.fail("%s %s: %d server errors, first: %s", w.srv.Profile().Name, name, n, w.srv.AppErrors()[0])
	}
	if set.Resets > 0 {
		r.fail("%s %s: %d connection resets", w.srv.Profile().Name, name, set.Resets)
	}
	if w.repl == nil {
		r.attempted += int(set.Completed - done0)
		return tput
	}

	// A closed-loop batch is one response sample: the client waits for
	// the whole batch (workloads.ClientSet times batches, not requests).
	for _, s := range set.Latencies.Samples()[lat0:] {
		r.lat = append(r.lat, s*1000)
	}
	r.completions += set.Completed - done0
	r.attempted += int(set.Completed - done0)
	r.wire += w.wireBytes() - wire0
	r.replVirt += d

	a := &r.layer
	a.virt += d
	a.epochs(w.repl.Timeline, from, from.Add(d))
	a.writebacks += w.ctr.FS.Writebacks() - wb0
	a.ctrBusy += w.ctr.CPUBusy - busy0
	a.backupBusy += w.repl.Backup.CPUBusy - bbusy0
	a.utilVirt += d
	a.resyncs += w.repl.Resyncs.Value()
	for _, s := range w.ctr.Stack.Sockets() {
		a.retransmits += s.Retransmits()
	}
	a.completions += int(set.Completed - done0)
	a.clientErrors += len(set.ValidationErrors())
	a.appErrors += w.appErrors()
	a.resets += set.Resets
	return tput
}
