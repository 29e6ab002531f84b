package core

import (
	"sort"

	"fmt"

	"nilicon/internal/criu"
	"nilicon/internal/simfs"
	"nilicon/internal/simkernel"
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
)

// Input-blocking mode aliases.
const (
	plugBufferMode   = simnet.PlugBuffer
	firewallDropMode = simnet.FirewallDrop
)

// Backup-side processing cost model (Table V): reading the transferred
// state costs per-byte copy time plus one read system call per chunk;
// socket state arrives in much finer chunks than page data, which is why
// Node's backup utilization exceeds Redis's despite similar state sizes
// (§VII-C).
const (
	backupReadSyscall = 2 * simtime.Microsecond
	pageChunkBytes    = 64 << 10
	sockChunkBytes    = 1 << 10
)

func backupCopyCost(bytes int64) simtime.Duration {
	// ≈0.4 ns per byte.
	return simtime.Duration(bytes * 2 / 5)
}

// maxPageNumber bounds per-process page numbers so (process index, page
// number) packs into the radix store's 36-bit key space.
const maxPageNumber = 1 << 28

type fsPageKey struct {
	ino int
	idx int64
}

// RecoveryStats reports the failover timeline (Table II).
type RecoveryStats struct {
	// DetectedAt is when the missing heartbeats crossed the threshold.
	DetectedAt simtime.Time
	// Other is the fixed agent work: discarding uncommitted state and
	// building the image files CRIU expects (§IV).
	Other simtime.Duration
	// Restore is the container state restoration time.
	Restore simtime.Duration
	// ARP is the gratuitous-ARP propagation time.
	ARP simtime.Duration
	// TCP is the portion of the retransmission timeout not overlapped
	// with other recovery actions (§V-E, Table II): the repair-RTO
	// countdown starts when the socket queues are repaired mid-restore,
	// so only its remainder past network-live delays the first
	// retransmission of unacknowledged data.
	TCP simtime.Duration
	// NetworkLiveAt is when the restored container's sockets went live.
	NetworkLiveAt simtime.Time
	// CommittedEpoch is the checkpoint recovered to.
	CommittedEpoch uint64
	// Replay reports the deterministic replay of the committed
	// nondeterminism-log suffix (nil unless Opts.RecordReplay).
	Replay *ReplayStats
}

// BackupAgent receives checkpoints, buffers them in memory (NiLiCon
// keeps no ready-to-go container, §III), acknowledges them once the
// corresponding disk barrier has arrived, commits them, and performs
// recovery when the failure detector fires.
type BackupAgent struct {
	cl  *Cluster
	cfg Config
	r   *Replicator

	// slot is this agent's index in the replicator's chain (chain.go);
	// 0 is the classic pair backup.
	slot int

	store criu.PageStore
	// baseline holds, for a raw store built from a full image with
	// SharesFrames set, the keys whose buffer arrived in that image and
	// has not been superseded since. Such a buffer may still be another
	// container's frame, so it is never recycled (DESIGN.md §8).
	baseline map[uint64]struct{}

	fsPages  map[fsPageKey]simfs.PageEntry
	fsInodes map[int]simfs.InodeEntry

	lastImage      *criu.Image
	lastInfrequent criu.InfrequentState
	haveInfrequent bool

	committed    uint64
	hasCommitted bool

	// resyncRequested is set while a NACK is outstanding: the backup saw
	// an out-of-order epoch (images lost to a link outage) and asked the
	// primary for a full resynchronization baseline. Re-sent on every
	// detector tick until the baseline commits, so a dropped NACK cannot
	// wedge the protocol.
	resyncRequested bool

	pending map[uint64]*criu.Image

	// Nondeterminism log (Opts.RecordReplay; replay.go): logSegs buffers
	// received segments by sequence, logContig is the highest
	// contiguously received (and therefore committable) sequence, and
	// logAckSent the highest cumulative acknowledgment sent.
	logSegs    map[uint64]*criu.LogSegment
	logContig  uint64
	logAckSent uint64

	lastHeartbeat simtime.Time
	detector      *simtime.Ticker
	monitoring    bool
	recovered     bool

	// Lease arbitration state (lease.go, DESIGN.md §10). lastGrantSent
	// is stamped at every grant *send* (delivered or not — an
	// undelivered grant only makes the primary fence sooner, so
	// counting it is the conservative direction); promotePending marks
	// a conviction waiting out the promotion barrier.
	lastGrantSent  simtime.Time
	promotePending bool
	promoteEvent   *simtime.Event
	// networkLive is set when the restored container's sockets go live
	// after a promotion (the instant the replica starts serving).
	networkLive bool
	// Supersede beacon toward the old primary (bounded; stops on the
	// stand-down acknowledgment).
	beacon      *simtime.Ticker
	beaconTicks int
	standDown   bool
	// halted marks an agent whose host died (fleet host-kill or fencing):
	// it must neither receive state, acknowledge, NACK, nor recover —
	// a dead host runs nothing.
	halted bool

	// CPUBusy is the backup host's processing time (Table V).
	CPUBusy simtime.Duration

	// Recovery result, populated after failover.
	Recovery      *RecoveryStats
	RestoredCtr   RestoredContainer
	recoverErr    error
	storeCostSeen simtime.Duration
}

func newBackupAgent(cl *Cluster, cfg Config, r *Replicator) *BackupAgent {
	b := &BackupAgent{
		cl: cl, cfg: cfg, r: r,
		fsPages:  make(map[fsPageKey]simfs.PageEntry),
		fsInodes: make(map[int]simfs.InodeEntry),
		pending:  make(map[uint64]*criu.Image),
		logSegs:  make(map[uint64]*criu.LogSegment),
	}
	if cfg.Opts.OptimizeCRIU {
		b.store = criu.NewRadixStore()
	} else {
		b.store = criu.NewListStore()
	}
	return b
}

func (b *BackupAgent) start() {
	b.lastHeartbeat = b.cl.Clock.Now()
	// Grant accounting starts at arming time: the primary armed its own
	// initial lease in the same instant, so the barrier math covers it.
	b.lastGrantSent = b.lastHeartbeat
	b.monitoring = true
	b.cl.DRBDBackup.OnBarrier = func(e uint64) { b.tryAck(e) }
	b.detector = simtime.NewTicker(b.cl.Clock, b.cfg.HeartbeatInterval, b.checkHeartbeat)
}

func (b *BackupAgent) stop() {
	b.monitoring = false
	if b.detector != nil {
		b.detector.Stop()
	}
}

// Halt kills the agent the way a host power loss would: the detector
// stops and every handler becomes inert. Unlike stop (measurement
// teardown), a halted agent stays halted — it can never acknowledge,
// NACK, or recover.
// Halted reports whether this agent has been halted (its host died or
// the control plane stood it down).
func (b *BackupAgent) Halted() bool { return b.halted }

func (b *BackupAgent) Halt() {
	b.halted = true
	b.promotePending = false
	if b.promoteEvent != nil {
		b.promoteEvent.Cancel()
	}
	if b.beacon != nil {
		b.beacon.Stop()
	}
	b.stop()
}

// LastHeartbeat returns the arrival time of the newest primary
// heartbeat. The fleet's host-level failure detector aggregates this
// across every pair whose primary shares a host.
func (b *BackupAgent) LastHeartbeat() simtime.Time { return b.lastHeartbeat }

func (b *BackupAgent) heartbeatArrived() {
	if b.halted {
		return
	}
	b.lastHeartbeat = b.cl.Clock.Now()
}

func (b *BackupAgent) checkHeartbeat() {
	if !b.monitoring || b.recovered || b.halted || b.promotePending {
		return
	}
	now := b.cl.Clock.Now()
	// Until the initial synchronization commits there is nothing to
	// recover to; the warm spare arms its detector at first commit.
	if !b.hasCommitted {
		b.lastHeartbeat = now
	}
	deadline := simtime.Duration(b.cfg.HeartbeatMisses) * b.cfg.HeartbeatInterval
	stale := now.Sub(b.lastHeartbeat) > deadline
	if b.cfg.BackupBeat || b.cfg.Lease.Enabled {
		// Reverse liveness beat: an individual packet on the ack link, so
		// the primary (and through it the fleet control plane) can tell a
		// dead backup host from a merely idle one. With the lease enabled
		// the beat doubles as an implicit grant renewal — withheld the
		// moment the primary's heartbeats go stale, so a grant is never
		// extended to a host the conviction below is about to declare
		// dead (an unbounded grant stream to a dead primary would push
		// the promotion barrier out forever).
		r := b.r
		grant := b.cfg.Lease.Enabled && !stale && b.grantsLease()
		if grant {
			b.lastGrantSent = now
		}
		sentAt := now
		slot := b.slot
		b.cl.AckLink.TransferExpress(16, func() {
			r.backupBeatSeenFrom(slot)
			if grant {
				r.leaseGranted(sentAt)
			}
		})
	}
	if b.resyncRequested {
		// The NACK (or the baseline it asked for) may itself have been
		// lost; keep asking until a baseline commits.
		b.sendResync()
	}
	if b.cfg.Opts.RecordReplay {
		// Re-send the cumulative log acknowledgment: an ack lost on a
		// flapping link must not leave committed-but-unflushed output
		// parked at the primary until the next segment arrives.
		b.resendLogAck()
	}
	if stale {
		switch {
		case b.r.witness != nil:
			// Quorum mode: never self-promote — bid, and let the witness
			// (which may still hear the primary) arbitrate.
			b.sendCandidacy()
		case b.r.externalArbiter:
			// A control plane (the fleet detector) arbitrates promotion
			// for this chain: with several replicas each holding their own
			// staleness view, per-replica self-promotion would elect
			// everyone. The arbiter picks one slot and calls Recover on it.
		default:
			b.Recover()
		}
	}
}

// receiveState handles a checkpoint's arrival.
func (b *BackupAgent) receiveState(epoch uint64, img *criu.Image) {
	if b.recovered || b.halted {
		return
	}
	b.pending[epoch] = img
	b.tryAck(epoch)
}

// tryAck acknowledges an epoch once both its container state and its
// disk barrier have arrived, then commits it (§IV).
//
// Commits are strictly in epoch order. An incremental image is a delta
// against its predecessor: committing epoch e+2 when e+1 was lost on
// the link would silently merge a delta onto the wrong base. On a gap,
// the backup NACKs and waits for a full resynchronization baseline
// (full image with a complete fs-cache dump, plus a disk snapshot);
// only such a baseline may commit out of order, resetting the buffered
// state it supersedes.
func (b *BackupAgent) tryAck(epoch uint64) {
	img, ok := b.pending[epoch]
	if !ok || b.recovered || b.halted || b.promotePending {
		return
	}
	if !b.cl.DRBDBackup.BarrierReceived(epoch) {
		return
	}
	if img.DiskResync {
		// The lost epochs' disk writes never arrived; this epoch is
		// acknowledgeable only once the shipped snapshot is applied.
		if rs, ok2 := b.cl.DRBDBackup.ResyncedThrough(); !ok2 || rs < epoch {
			return
		}
	}
	baseline := img.Full && img.FSComplete
	inOrder := (!b.hasCommitted && img.Full) ||
		(b.hasCommitted && epoch == b.committed+1)
	if !inOrder && !baseline {
		if !b.resyncRequested {
			b.resyncRequested = true
			b.sendResync()
		}
		return
	}
	if baseline && b.hasCommitted {
		b.resetToBaseline(epoch)
	}
	delete(b.pending, epoch)
	// Commit before acknowledging: an image whose frames cannot be
	// decoded against the committed state (e.g. a delta that raced a
	// resynchronization) is rejected — dropped without an ack — and the
	// backup NACKs for a fresh full baseline instead of committing a
	// corrupted page.
	if err := b.commit(epoch, img); err != nil {
		if !b.resyncRequested {
			b.resyncRequested = true
			b.sendResync()
		}
		return
	}
	r := b.r
	// Every ack implicitly renews the primary's output-release lease,
	// stamped with its send time (the conservative end of the term) —
	// unless a witness centralizes granting (quorum mode).
	sentAt := b.cl.Clock.Now()
	grant := b.cfg.Lease.Enabled && b.grantsLease()
	if grant {
		b.lastGrantSent = sentAt
	}
	slot := b.slot
	b.cl.AckLink.Transfer(16, func() {
		if grant {
			r.leaseGranted(sentAt)
		}
		r.ackReceivedFrom(slot, epoch)
	})
	if baseline {
		b.resyncRequested = false
	}
	// A gap may have buffered successors; commit any now-in-order run.
	b.tryAck(epoch + 1)
}

// sendResync NACKs the current state to the primary: epochs were lost
// and only a full resynchronization baseline can resume commits.
func (b *BackupAgent) sendResync() {
	r := b.r
	b.cl.AckLink.TransferExpress(16, func() { r.nackReceived() })
}

// resetToBaseline discards buffered state a resynchronization baseline
// supersedes: the page store and fs-cache merge are rebuilt from the
// full image about to commit, and pending images older than the
// baseline can never commit. The infrequent-state cache survives — the
// primary's tracker guarantees a fresh copy was shipped if it changed.
func (b *BackupAgent) resetToBaseline(epoch uint64) {
	if b.cfg.Opts.OptimizeCRIU {
		b.store = criu.NewRadixStore()
	} else {
		b.store = criu.NewListStore()
	}
	b.fsPages = make(map[fsPageKey]simfs.PageEntry)
	b.fsInodes = make(map[int]simfs.InodeEntry)
	for e := range b.pending {
		if e < epoch {
			delete(b.pending, e)
		}
	}
}

// commit merges the checkpoint into the buffered committed state and
// applies the epoch's disk writes. An image whose encoded frames do not
// decode cleanly against the committed page store is rejected with an
// error before anything is installed: frames are decoded in image order
// against the pre-image state first (a dedup reference always precedes
// its donor's own update, so this matches sequential application), and
// only a fully-valid image is merged — a half-applied epoch could
// otherwise leak into a failover.
func (b *BackupAgent) commit(epoch uint64, img *criu.Image) error {
	c := b.cl.Backup.Kernel.Costs
	var pageBytes, sockBytes int64
	var decodeCost simtime.Duration
	type decodedPage struct {
		key  uint64
		data []byte
	}
	var decoded []decodedPage
	for pi := range img.Procs {
		p := &img.Procs[pi]
		for fi := range p.Frames {
			f := &p.Frames[fi]
			if f.PN >= maxPageNumber {
				panic(fmt.Sprintf("core: page number %#x exceeds store key space", f.PN))
			}
			key := criu.PageKey(pi, f.PN)
			data, err := criu.DecodeFrame(f, key, b.store)
			if err != nil {
				return err
			}
			decoded = append(decoded, decodedPage{key, data})
			switch f.Kind {
			case criu.FrameFull:
				pageBytes += int64(len(data))
			case criu.FrameDelta:
				pageBytes += int64(len(f.Delta))
				// Verify the base hash, apply the patch, verify the result.
				decodeCost += 2*c.PageHash + c.PageDeltaApply
			case criu.FrameZero:
				// Installing the zero page is one page-sized write.
				decodeCost += backupCopyCost(int64(len(data)))
			case criu.FrameDedup:
				// Verify the donor hash; the content itself is shared.
				decodeCost += c.PageHash
			}
		}
	}
	b.store.BeginCheckpoint()
	storeBefore := b.store.Cost()
	for _, d := range decoded {
		// Decoded buffers (and the image's own page buffers below) go
		// to the store without copying; nothing writes them afterwards.
		// What a decoded frame supersedes is never recycled: a full
		// frame's payload is co-owned by the primary's encoder, and a
		// dedup donor's slice sits under two keys.
		b.store.PutOwned(d.key, d.data)
	}
	// Without an encoder the store holds every verbatim page under one
	// key. A copy a newer epoch supersedes was lent from the primary's
	// frame, which the write that superseded it moved to a fresh copy,
	// so it is dead and goes back to the page pool (DESIGN.md §8).
	recycle := !b.cfg.Opts.DeltaPages && !b.cfg.Opts.BackupPageDedup
	if recycle && img.Full {
		// A full image commits into an empty store.
		b.baseline = nil
		if img.SharesFrames {
			b.baseline = make(map[uint64]struct{})
		}
	}
	for pi := range img.Procs {
		p := &img.Procs[pi]
		for _, pg := range p.Pages {
			if pg.PN >= maxPageNumber {
				panic(fmt.Sprintf("core: page number %#x exceeds store key space", pg.PN))
			}
			key := criu.PageKey(pi, pg.PN)
			old := b.store.PutOwned(key, pg.Data)
			if len(old) > 0 && len(pg.Data) > 0 && &old[0] == &pg.Data[0] {
				// A page is shipped again only after a write, and the
				// write moved the frame to a fresh copy.
				panic(fmt.Sprintf("core: page %#x committed twice in one buffer", key))
			}
			pageBytes += int64(len(pg.Data))
			if !recycle {
				continue
			}
			if img.Full {
				if b.baseline != nil {
					b.baseline[key] = struct{}{}
				}
			} else if _, base := b.baseline[key]; base {
				delete(b.baseline, key)
			} else {
				simkernel.RecyclePage(old)
			}
		}
	}
	for _, s := range img.Sockets {
		sockBytes += s.Size()
	}
	for _, pe := range img.FSCache.Pages {
		b.fsPages[fsPageKey{pe.Ino, pe.Idx}] = pe
		pageBytes += int64(len(pe.Data))
	}
	for _, ie := range img.FSCache.Inodes {
		b.fsInodes[ie.Ino] = ie
	}
	if !img.InfrequentCached {
		b.lastInfrequent = img.Infrequent
		b.haveInfrequent = true
	} else if !b.haveInfrequent {
		// A cache marker refers to infrequent state shipped with an
		// earlier image; with no such image ever received, recording the
		// zero value would make a later restore silently rebuild the
		// container without cgroups, namespaces or mounts.
		panic("core: cached infrequent-state marker received before any full collection")
	}
	// Page contents now live in the store; keep only the metadata.
	for pi := range img.Procs {
		img.Procs[pi].Pages = nil
		img.Procs[pi].Frames = nil
	}
	b.lastImage = img
	b.committed = epoch
	b.hasCommitted = true

	if err := b.cl.DRBDBackup.Commit(epoch); err != nil {
		panic("core: disk commit failed: " + err.Error())
	}

	if b.cfg.Opts.RecordReplay {
		// The checkpoint contains the effects of every segment sealed
		// before its freeze: truncate them from the replay buffer and
		// advance the contiguity watermark across any gap they covered.
		b.truncateLog(img.LogSeqThrough)
	}

	// Backup CPU accounting (Table V).
	cost := backupCopyCost(pageBytes + sockBytes)
	cost += backupReadSyscall * simtime.Duration(1+pageBytes/pageChunkBytes)
	cost += backupReadSyscall * simtime.Duration(1+sockBytes/sockChunkBytes)
	cost += decodeCost
	cost += b.store.Cost() - storeBefore
	cost += 40 * simtime.Microsecond // ack + bookkeeping
	b.CPUBusy += cost
	return nil
}

// CommittedEpoch returns the newest committed epoch (ok=false before the
// first commit).
func (b *BackupAgent) CommittedEpoch() (uint64, bool) { return b.committed, b.hasCommitted }

// buildRestoreImage assembles the full image CRIU restore expects from
// the buffered committed state (§IV).
func (b *BackupAgent) buildRestoreImage() (*criu.Image, error) {
	if !b.hasCommitted || b.lastImage == nil {
		return nil, fmt.Errorf("core: no committed checkpoint to recover from")
	}
	src := b.lastImage
	img := &criu.Image{
		ContainerID: src.ContainerID,
		IP:          src.IP,
		Cores:       src.Cores,
		Epoch:       b.committed,
		Full:        true,
		Sockets:     src.Sockets,
		Listeners:   src.Listeners,
		Infrequent:  b.lastInfrequent,
		AppState:    src.AppState,
	}
	for pi := range src.Procs {
		p := src.Procs[pi]
		p.Pages = nil
		lo := uint64(pi) << 28
		hi := uint64(pi+1) << 28
		b.store.ForRange(lo, hi, func(key uint64, data []byte) {
			p.Pages = append(p.Pages, criu.PageImage{PN: key - lo, Data: data})
		})
		img.Procs = append(img.Procs, p)
	}
	var fc simfs.CacheSnapshot
	for _, ie := range b.fsInodes {
		fc.Inodes = append(fc.Inodes, ie)
	}
	for _, pe := range b.fsPages {
		fc.Pages = append(fc.Pages, pe)
	}
	sort.Slice(fc.Inodes, func(i, j int) bool { return fc.Inodes[i].Ino < fc.Inodes[j].Ino })
	sort.Slice(fc.Pages, func(i, j int) bool {
		if fc.Pages[i].Ino != fc.Pages[j].Ino {
			return fc.Pages[i].Ino < fc.Pages[j].Ino
		}
		return fc.Pages[i].Idx < fc.Pages[j].Idx
	})
	img.FSCache = fc
	return img, nil
}

// Recover performs failover. With the lease enabled it first waits out
// the promotion barrier: the last grant this backup sent must have
// provably expired (plus the clock-skew margin) before the restored
// container may touch the network — by then a still-alive primary has
// self-fenced, so promotion can never create a second serving replica.
// While the barrier is pending, acknowledgments and further grants are
// suppressed; if the primary's heartbeats resume in the meantime (the
// partition healed mid-election) the promotion aborts instead.
func (b *BackupAgent) Recover() {
	if b.recovered || b.halted || b.promotePending {
		return
	}
	if b.cfg.Lease.Enabled {
		if barrier := b.promotionBarrier(); b.cl.Clock.Now() < barrier {
			b.promotePending = true
			b.promoteEvent = b.cl.Clock.ScheduleAt(barrier, b.promoteBarrierReached)
			return
		}
	}
	b.doRecover()
}

// doRecover is the actual failover: discard uncommitted state, commit
// what is acknowledged, promote the disk, restore the container via
// CRIU, and bring its network up (disconnect → restore → reconnect +
// gratuitous ARP → leave repair mode), in the order §III/§IV
// prescribe.
func (b *BackupAgent) doRecover() {
	if b.recovered || b.halted {
		return
	}
	b.recovered = true
	b.stop()
	now := b.cl.Clock.Now()

	stats := &RecoveryStats{DetectedAt: now, CommittedEpoch: b.committed}
	b.Recovery = stats

	// Discard any uncommitted buffered state.
	b.pending = make(map[uint64]*criu.Image)
	b.cl.DRBDBackup.DiscardAbove(b.committed)
	if err := b.cl.DRBDBackup.Promote(); err != nil {
		b.recoverErr = err
		return
	}

	img, err := b.buildRestoreImage()
	if err != nil {
		b.recoverErr = err
		return
	}
	// Fixed agent work: image-file creation etc. ("Others" in Table II).
	stats.Other = 7 * simtime.Millisecond

	m := b.cl.Backup.Kernel.StartMeter()
	ctr, err := criu.Restore(b.cl.Backup, img, b.cl.DRBDBackup)
	restoreCost := m.Stop()
	if err != nil {
		b.recoverErr = err
		return
	}
	stats.Restore = restoreCost
	stats.ARP = 28 * simtime.Millisecond
	b.RestoredCtr = ctr
	// The restored frames are the store's buffers, installed shared.
	// Dropping the store leaves nothing here that could recycle one.
	// The primary that lent them may still be running on them.
	b.store, b.baseline = nil, nil
	b.r.Ctr.SharesFrames = true

	// The restore spans [now+Other, now+Other+Restore) in virtual time;
	// sockets are repaired roughly halfway through, which is when their
	// retransmission timers arm (the Table II TCP component is the part
	// of the RTO countdown not overlapped with the rest of recovery).
	sockRestoredAt := now.Add(stats.Other + restoreCost/2)
	for _, s := range ctr.Stack.Sockets() {
		s.SetRestoredAt(sockRestoredAt)
	}

	// Keep the restored container frozen until the restore completes in
	// virtual time; the workload reattaches its tasks meanwhile.
	ctr.Freeze()
	if b.cfg.Reattach != nil {
		b.cfg.Reattach(ctr, img.AppState)
	}

	b.cl.Clock.Schedule(stats.Other+restoreCost, func() {
		ctr.Thaw()
		finish := func() {
			criu.FinishNetworkRestore(ctr, b.cfg.Opts.RepairRTOPatch, func() {
				stats.NetworkLiveAt = b.cl.Clock.Now()
				b.networkLive = true
				b.startSupersedeBeacon()
				rto := ctr.Stack.RTOMin
				if !b.cfg.Opts.RepairRTOPatch {
					rto = ctr.Stack.RTOInitial
				}
				elapsed := stats.NetworkLiveAt.Sub(sockRestoredAt)
				if remaining := rto - elapsed; remaining > 0 {
					stats.TCP = remaining
				}
				if b.cfg.OnRecovered != nil {
					b.cfg.OnRecovered(ctr, *stats)
				}
			})
		}
		if b.cfg.Opts.RecordReplay {
			// Replay the committed log suffix before the network comes up:
			// the regenerated send-queue contents must be in place when the
			// sockets leave repair mode, and the replay's CPU cost delays
			// network-live honestly.
			m := b.cl.Backup.Kernel.StartMeter()
			rs := b.replayLog(ctr)
			rs.Cost = m.Stop()
			stats.Replay = rs
			if rs.Cost > 0 {
				b.cl.Clock.Schedule(rs.Cost, finish)
				return
			}
		}
		finish()
	})
}

// Recovered reports whether failover has run.
func (b *BackupAgent) Recovered() bool { return b.recovered }

// RecoverError returns the failover error, if any.
func (b *BackupAgent) RecoverError() error { return b.recoverErr }
