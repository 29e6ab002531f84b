package main

import (
	"nilicon/internal/core"
	"nilicon/internal/simtime"
	"nilicon/internal/trace"
)

// layerAcc pools the traced run's per-layer observations over every
// world's measured phases.
type layerAcc struct {
	virt        simtime.Duration    // measured virtual time the rates below cover
	records     []trace.EpochRecord // epochs that started in a measured phase
	logCommitMs []float64           // record/replay: segment seal → ack
	writebacks  int64
	// CPU time of the protected containers and their backup agents over
	// utilVirt, the fault-free measured time summed over containers.
	ctrBusy, backupBusy simtime.Duration
	utilVirt            simtime.Duration
	resyncs             int64
	retransmits         int

	inflightMax, drbdMax, reprotectQMax int

	failovers          []failoverPhases
	clusterFailovers   int
	fences, reprotects int

	completions, outstanding, violations int
	clientErrors, appErrors, resets      int
}

// failoverPhases splits one client-observed outage (fault → first
// completion of a request due after it) into consecutive phases, ms.
type failoverPhases struct {
	outage  float64
	core    float64 // detection, lease promotion barrier, agent work
	restore float64 // CRIU restore
	arp     float64 // network restore: gratuitous ARP (and replay, if any)
	resume  float64 // network live → first completion: TCP retransmission
}

// phasesOf derives the failover phases from a recovery's timeline.
func phasesOf(fault simtime.Time, st core.RecoveryStats, outageMs float64) failoverPhases {
	ms := func(d simtime.Duration) float64 { return d.Seconds() * 1000 }
	restored := st.DetectedAt.Add(st.Other + st.Restore)
	return failoverPhases{
		outage:  outageMs,
		core:    ms(st.DetectedAt.Sub(fault) + st.Other),
		restore: ms(st.Restore),
		arp:     ms(st.NetworkLiveAt.Sub(restored)),
		resume:  outageMs - ms(st.NetworkLiveAt.Sub(fault)),
	}
}

// epochs appends a timeline's records that started in [from, to).
func (a *layerAcc) epochs(tl *trace.Timeline, from, to simtime.Time) {
	if tl == nil {
		return
	}
	for _, rec := range tl.Records() {
		if rec.At >= from && rec.At < to {
			a.records = append(a.records, rec)
		}
	}
}

// metrics computes the per-layer metrics of a traced run.
func (a *layerAcc) metrics(r *run) map[string]float64 {
	m := map[string]float64{}
	vs := a.virt.Seconds()
	rate := func(x float64) float64 {
		if vs <= 0 {
			return 0
		}
		return x / vs
	}
	var dirty, memcopy, sock, state, stop, xfer, commit []float64
	ms := func(d simtime.Duration) float64 { return d.Seconds() * 1000 }
	for _, rec := range a.records {
		dirty = append(dirty, float64(rec.DirtyPages))
		memcopy = append(memcopy, ms(rec.MemCopy))
		sock = append(sock, ms(rec.SockColl))
		state = append(state, float64(rec.StateBytes)/1e6)
		stop = append(stop, ms(rec.Stop))
		xfer = append(xfer, ms(rec.Transfer))
		commit = append(commit, ms(rec.Commit))
	}
	if len(a.logCommitMs) > 0 {
		// Record/replay releases output on log-segment commit, not epoch
		// commit: that is the latency gating the client.
		commit = a.logCommitMs
	}
	epochs := float64(len(a.records))
	m["simtime.events"] = float64(r.events)
	m["simtime.events_per_s"] = float64(r.events) / r.measWall.Seconds()
	m["simkernel.dirty_pages_per_epoch"] = mean(dirty)
	m["criu.memcopy_ms"] = mean(memcopy)
	m["criu.sock_collect_ms"] = mean(sock)
	m["criu.state_mb_per_epoch"] = mean(state)
	m["simfs.writebacks_per_s"] = rate(float64(a.writebacks))
	m["simdisk.drbd_buffered_max"] = float64(a.drbdMax)
	m["simnet.retransmits"] = float64(a.retransmits)
	m["container.cpu_util"] = perContainer(a.ctrBusy, a.utilVirt)
	m["core.epochs"] = epochs
	m["core.stop_ms"] = mean(stop)
	m["core.stage.Transfer_ms"] = mean(xfer)
	m["core.commit_mean_ms"] = mean(commit)
	m["core.commit_p99_ms"] = percentile(commit, 99)
	m["core.inflight_max"] = float64(a.inflightMax)
	m["core.backup_util"] = perContainer(a.backupBusy, a.utilVirt)
	m["core.resyncs"] = float64(a.resyncs)

	var out, pcore, prestore, parp, presume float64
	for _, f := range a.failovers {
		out += f.outage
		pcore += f.core
		prestore += f.restore
		parp += f.arp
		presume += f.resume
	}
	share := func(x float64) float64 {
		if out <= 0 {
			return 0
		}
		return 100 * x / out
	}
	m["core.failover_pct"] = share(pcore)
	m["criu.restore_pct"] = share(prestore)
	m["simnet.arp_pct"] = share(parp)
	m["simnet.resume_pct"] = share(presume)

	m["cluster.failovers"] = float64(a.clusterFailovers)
	m["cluster.fences"] = float64(a.fences)
	m["cluster.reprotects"] = float64(a.reprotects)
	m["cluster.reprotect_queue_max"] = float64(a.reprotectQMax)
	m["traffic.completions"] = float64(a.completions)
	m["traffic.outstanding"] = float64(a.outstanding)
	m["traffic.violation_windows"] = float64(a.violations)
	m["workloads.client_errors"] = float64(a.clientErrors)
	m["workloads.app_errors"] = float64(a.appErrors)
	m["workloads.resets"] = float64(a.resets)

	m["runtime.gc_cpu_pct"] = 0
	if r.rt.busyCPU > 0 {
		m["runtime.gc_cpu_pct"] = 100 * r.rt.gcCPU / r.rt.busyCPU
	}
	m["runtime.alloc_mb_per_vs"] = rate(float64(r.rt.allocBytes) / 1e6)
	if epochs > 0 {
		m["runtime.allocs_per_epoch"] = float64(r.rt.allocs) / epochs
		m["sim.ns_per_epoch"] = float64(r.measWall.Nanoseconds()) / epochs
	}
	return m
}

// perContainer is busy time per container-second, in cores.
func perContainer(busy, over simtime.Duration) float64 {
	if over <= 0 {
		return 0
	}
	return busy.Seconds() / over.Seconds()
}
