package main

import (
	"fmt"

	"nilicon/bench/spec"
	"nilicon/internal/cluster"
	"nilicon/internal/container"
	"nilicon/internal/core"
	"nilicon/internal/simtime"
	"nilicon/internal/workloads"
)

// fleet-zonekill: f+1 chains of width 3 over three zones; one whole zone
// loses power. Event-dominated: many hosts, heartbeats and detector
// ticks load simtime and cluster, and it is the only workload on the
// fleet's chain promotion path.
type fleetShape struct {
	chains, workers, spares int
	warmup                  simtime.Duration // initial syncs
	before                  simtime.Duration // traffic before the kill's epoch
	after                   simtime.Duration // arrivals continue this long past the kill
	cap                     simtime.Duration // longest wait for re-protection
	tail                    simtime.Duration // observed after re-protection
}

const (
	fleetRate    = 100.0 // req/s per chain
	fleetClients = 2     // connections per chain
	fleetPages   = 256
	fleetRecords = 512
	fleetZones   = 3
	fleetWidth   = 3
)

// fleetKV adapts the kv server to cluster.Workload, rebuilding a fresh
// server instance on every restored container.
type fleetKV struct {
	srv    *workloads.Server
	errors int // reattach failures
}

func (k *fleetKV) Install(ctr *container.Container) { k.srv.Install(ctr) }

func (k *fleetKV) Reattach(ctr *container.Container, state any) {
	fresh := workloads.NewServer(kvProfile(fleetPages, fleetRecords))
	if err := fresh.Reattach(ctr, state); err != nil {
		k.errors++
	}
	k.srv = fresh
}

func runFleet(r *run, sh fleetShape, worlds int) {
	var p50, mx, reprotect []float64
	for k := 0; k < worlds; k++ {
		o, rs := fleetWorld(r, sh, r.worldSeed(k))
		r.endUnit()
		p50 = append(p50, spec.Median(o))
		mx = append(mx, maxOf(o))
		reprotect = append(reprotect, rs)
	}
	r.extra["unavail_p50_ms"] = spec.Median(p50)
	r.extra["unavail_max_ms"] = maxOf(mx)
	r.extra["reprotect_s"] = spec.Median(reprotect)
}

// fleetWorld returns the outage of every chain with a slot in the
// killed zone (ms) and the time to full re-protection (s).
func fleetWorld(r *run, sh fleetShape, seed int64) ([]float64, float64) {
	offset := epochOffset(seed)
	arrivals := sh.before + offset + sh.after

	id := r.newWorld()
	var sc *simtime.ShardedClock
	var f *cluster.Fleet
	apps := map[string]*fleetKV{}
	var ols []*openLoop
	r.call(id, nil, "cluster.build", func() {
		sc = simtime.NewShardedClock(1)
		var err error
		f, err = cluster.NewSharded(sc, cluster.Params{
			Workers: sh.workers, Spares: sh.spares, Pairs: sh.chains,
			Replicas: fleetWidth, Zones: fleetZones,
			MaxConcurrentResyncs: 2,
			Lease:                core.DefaultLease(),
			Seed:                 seed,
			Workload: func(pairID string) cluster.Workload {
				k := &fleetKV{srv: workloads.NewServer(kvProfile(fleetPages, fleetRecords))}
				apps[pairID] = k
				return k
			},
		})
		if err != nil {
			panic(fmt.Sprintf("fleet-zonekill: %v", err)) // fixed shape: a bug, not input
		}
		f.Start()
		for i, pr := range f.Pairs {
			tr := poisson(seed*1000+int64(i), fleetClients, fleetRate, arrivals, fleetRecords)
			ol := newOpenLoop(f.Clock, f.NewClient, pr.IP, kvProfile(fleetPages, fleetRecords).Port, tr, fmt.Sprintf("10.3.%d.", i))
			ols = append(ols, ol)
		}
	})
	r.tr.keep(id, f.Timeline)
	r.sample(sc, func() {
		r.layer.reprotectQMax = max(r.layer.reprotectQMax, f.QueuedReprotects())
		for _, pr := range f.Pairs {
			r.layer.inflightMax = max(r.layer.inflightMax, pr.Repl.InflightEpochs())
			r.layer.drbdMax = max(r.layer.drbdMax, pr.View.DRBDBackup.Buffered())
		}
	})
	r.step(id, sc, "warmup", sh.warmup)

	start := sc.Now()
	wire0 := f.WireBytes()
	busy0, bbusy0 := fleetBusy(f)
	for _, ol := range ols {
		ol.Start(start)
	}
	r.measure(id, sc, "measure.before", sh.before+offset)
	fault := sc.Now()
	busy, bbusy := fleetBusy(f)
	zone := 0
	var inZone []int // chains with a slot in the killed zone
	primaries := 0
	for i, pr := range f.Pairs {
		hit := f.Hosts[pr.PrimaryHost].Zone == zone
		if hit {
			primaries++
		}
		for _, h := range pr.ReplicaHosts {
			hit = hit || f.Hosts[h].Zone == zone
		}
		if hit {
			inZone = append(inZone, i)
		}
	}
	// Re-protection completes at a control-plane event (a chain's
	// resync or repair committing); catch the exact instant.
	var reprotected simtime.Time
	f.Eventf = func(string, ...any) {
		if reprotected == 0 && sc.Now() > fault && fullyProtected(f) {
			reprotected = sc.Now()
		}
	}
	r.call(id, sc, "cluster.KillZone", func() { f.KillZone(zone) })

	// Observe until the arrivals are over and every chain is back at
	// full strength on live hosts.
	arrivalEnd := start.Add(arrivals)
	r.tr.do("observe", id, sc, func() {
		for sc.Now().Sub(fault) < sh.cap && (reprotected == 0 || sc.Now() < arrivalEnd) {
			r.measure(id, sc, "measure.observe", 10*simtime.Millisecond)
		}
	})
	if reprotected == 0 {
		r.fail("fleet-zonekill world %d: not re-protected within %v", id, sh.cap)
		reprotected = sc.Now()
	}
	r.measure(id, sc, "measure.tail", sh.tail)
	end := sc.Now()

	var outages []float64
	for _, ol := range ols {
		r.account(ol, start, arrivalEnd, end)
		r.finish(id, sc, ol, end)
	}
	for _, i := range inZone {
		outages = append(outages, ols[i].outageMs(fault, end))
	}
	r.wire += f.WireBytes() - wire0
	r.replVirt += arrivalEnd.Sub(start)

	failovers, fences, reprotects := 0, 0, 0
	for _, pr := range f.Pairs {
		if pr.State == cluster.Lost {
			r.fail("fleet-zonekill world %d: chain %s lost", id, pr.ID)
		}
		failovers += pr.Failovers
		fences += pr.Fences
		reprotects += pr.Reprotects
	}
	if failovers != primaries {
		r.fail("fleet-zonekill world %d: %d failovers, %d chains had their primary in the killed zone", id, failovers, primaries)
	}
	appErrs := 0
	for _, k := range apps {
		appErrs += len(k.srv.AppErrors()) + k.errors
	}
	if appErrs > 0 {
		r.fail("fleet-zonekill world %d: %d server errors", id, appErrs)
	}
	rs := reprotected.Sub(fault).Seconds()
	r.notes = append(r.notes, fmt.Sprintf("world %d: killed zone %d at %v: %d chains hit, %d failovers, re-protected after %.3fs",
		id, zone, fault, len(inZone), failovers, rs))

	a := &r.layer
	a.virt += arrivalEnd.Sub(start)
	a.epochs(f.Timeline, start, arrivalEnd)
	a.ctrBusy += busy - busy0
	a.backupBusy += bbusy - bbusy0
	a.utilVirt += fault.Sub(start) * simtime.Duration(len(f.Pairs))
	a.clusterFailovers += failovers
	a.fences += fences
	a.reprotects += reprotects
	a.appErrors += appErrs
	for _, pr := range f.Pairs {
		if st := pr.LastFailover; st != nil {
			a.failovers = append(a.failovers, phasesOf(fault, *st, ols[pr.Index].outageMs(fault, end)))
		}
	}
	return outages, rs
}

// fleetBusy sums the CPU time of every chain's protected container and
// of its replica agents.
func fleetBusy(f *cluster.Fleet) (ctr, backup simtime.Duration) {
	for _, pr := range f.Pairs {
		ctr += pr.Ctr.CPUBusy
		for i := 0; i < pr.Repl.Replicas(); i++ {
			backup += pr.Repl.ReplicaAgent(i).CPUBusy
		}
	}
	return ctr, backup
}

// fullyProtected reports whether every chain is protected at full width
// on live hosts, with nothing queued or resynchronizing.
func fullyProtected(f *cluster.Fleet) bool {
	if f.QueuedReprotects() > 0 || f.ActiveResyncs() > 0 {
		return false
	}
	for _, pr := range f.Pairs {
		if pr.State != cluster.Protected || f.Hosts[pr.PrimaryHost].Killed() {
			return false
		}
		live := 0
		for i, h := range pr.ReplicaHosts {
			if !pr.Repl.ReplicaFenced(i) && !f.Hosts[h].Killed() {
				live++
			}
		}
		if live < fleetWidth-1 {
			return false
		}
	}
	return true
}
