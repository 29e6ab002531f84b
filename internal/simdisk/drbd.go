package simdisk

import (
	"fmt"

	"nilicon/internal/simkernel"
	"nilicon/internal/simnet"
)

// WriteOp is one replicated block write, tagged with the epoch it
// belongs to. Data is a full block owned by the op: each peer gets its
// own, the secondary's disk adopts it at Commit, and a dropped op
// returns it to simkernel's page pool.
type WriteOp struct {
	Block uint64
	Data  []byte
	Epoch uint64
}

// DRBDRole distinguishes the two ends.
type DRBDRole int

// Roles.
const (
	RolePrimary DRBDRole = iota
	RoleSecondary
)

// DRBD is the modified DRBD module (RemusXen's changes ported to
// mainline DRBD, §IV). The primary end applies writes to its local disk
// and ships them asynchronously over the replication link; the secondary
// buffers them in memory, signals barrier arrival, and commits or
// discards on request.
type DRBD struct {
	Role  DRBDRole
	Local *Disk

	// Primary end: one secondary per replica, each reached over its own
	// replication link (f+1 chains fan every write out to all of them;
	// the per-link Transfer models the real per-replica NIC cost).
	// links[i] carries writes to peers[i].
	links []*simnet.Link
	peers []*DRBD

	epoch uint64 // primary: epoch tag for new writes
	// epochWrites counts the primary's shipped writes per epoch; the
	// count travels with the epoch's barrier so the secondary can tell a
	// complete epoch from one whose writes were dropped by a link outage.
	epochWrites map[uint64]int64

	// Secondary state.
	buffer []WriteOp
	// recvWrites counts received writes per epoch (compared against the
	// barrier's count).
	recvWrites map[uint64]int64
	// verified marks epochs whose own barrier arrived with a matching
	// write count: all of that epoch's writes are in the buffer. A
	// barrier whose count mismatches (writes lost on the link) does NOT
	// verify the epoch — it must never be committed from the buffer.
	verified map[uint64]bool
	// committed is the highest epoch applied to the local disk.
	committed uint64
	// resyncEpoch is the newest epoch covered by a full-snapshot resync
	// (ApplyResync); valid when resynced is true.
	resyncEpoch uint64
	resynced    bool

	// OnBarrier, if set on the secondary, fires when an epoch's barrier
	// arrives (the backup agent needs "all disk writes received" before
	// acknowledging a checkpoint, §IV) and when a resync snapshot is
	// applied.
	OnBarrier func(epoch uint64)

	// freeBarriers recycles the primary's barriers in flight.
	freeBarriers []*barrier
}

// barrier is one epoch's barrier on its way to one peer. Records are
// recycled with deliver bound once; one lost to a link cut is left to
// the GC.
type barrier struct {
	d, peer *DRBD
	epoch   uint64
	count   int64

	deliverFn func()
}

func (b *barrier) deliver() {
	peer, e, count := b.peer, b.epoch, b.count
	b.peer = nil
	b.d.freeBarriers = append(b.d.freeBarriers, b)
	peer.receiveBarrier(e, count)
}

// NewDRBDPair wires a primary/secondary pair over the replication link.
func NewDRBDPair(primaryDisk, backupDisk *Disk, link *simnet.Link) (*DRBD, *DRBD) {
	p := NewDRBDPrimary(primaryDisk)
	return p, p.AttachSecondary(backupDisk, link)
}

// NewDRBDPrimary returns a primary end over disk with no secondary yet;
// AttachSecondary adds each replica.
func NewDRBDPrimary(disk *Disk) *DRBD {
	return &DRBD{Role: RolePrimary, Local: disk, epochWrites: make(map[uint64]int64)}
}

// AttachSecondary stacks one more secondary onto a primary end over its
// own replication link and returns it. The new secondary has seen none
// of the primary's earlier epochs, so its first barrier will fail count
// verification and drive the normal NACK → full-resync baseline — which
// is exactly how chain repair brings a fresh replica up to date.
func (d *DRBD) AttachSecondary(backupDisk *Disk, link *simnet.Link) *DRBD {
	if d.Role != RolePrimary {
		panic("simdisk: attach-secondary on secondary end")
	}
	s := &DRBD{Role: RoleSecondary, Local: backupDisk,
		recvWrites: make(map[uint64]int64), verified: make(map[uint64]bool)}
	d.peers = append(d.peers, s)
	d.links = append(d.links, link)
	return s
}

// DetachPeer unhooks one secondary from a primary end (per-replica
// fencing); the remaining peers keep receiving writes. Unknown peers are
// ignored.
func (d *DRBD) DetachPeer(s *DRBD) {
	if d.Role != RolePrimary {
		return
	}
	for i, p := range d.peers {
		if p == s {
			d.peers = append(d.peers[:i], d.peers[i+1:]...)
			d.links = append(d.links[:i], d.links[i+1:]...)
			return
		}
	}
}

// SetEpoch sets the epoch tag for subsequent primary writes.
func (d *DRBD) SetEpoch(e uint64) { d.epoch = e }

// WriteBlock applies a block write locally and ships it to every
// secondary. Only the primary may write. DRBD thereby satisfies
// simfs.BlockStore, so a container file system can sit directly on it.
// With no secondary attached nothing is shipped or copied; otherwise
// each peer's op carries its own full-block copy (a short write is
// zero-padded), while the wire carries only the bytes written.
func (d *DRBD) WriteBlock(bn uint64, data []byte) error {
	if d.Role != RolePrimary {
		return fmt.Errorf("simdisk: write on %v end", d.Role)
	}
	if err := d.Local.WriteBlock(bn, data); err != nil {
		return err
	}
	if len(d.peers) == 0 {
		return nil
	}
	d.epochWrites[d.epoch]++
	for i, peer := range d.peers {
		op := WriteOp{Block: bn, Data: blockCopy(data), Epoch: d.epoch}
		d.links[i].Transfer(int64(len(data)+24), func() { peer.receiveWrite(op) })
	}
	return nil
}

// blockCopy returns a full-block copy of data from simkernel's page
// pool, zero-padded past a short write.
func blockCopy(data []byte) []byte {
	if len(data) == BlockSize {
		return simkernel.CopyPage(data)
	}
	b := simkernel.CopyPage(zeroBlock[:])
	copy(b, data)
	return b
}

// zeroBlock is the all-zero block a short write's copy starts from.
var zeroBlock [BlockSize]byte

// ReadBlock reads from the local disk (reads are processed normally,
// §II-A).
func (d *DRBD) ReadBlock(bn uint64) []byte { return d.Local.ReadBlock(bn) }

// Barrier marks the end of epoch e's writes and ships the marker,
// carrying the epoch's write count so the secondary can verify that no
// write was lost on the link.
func (d *DRBD) Barrier(e uint64) {
	if d.Role != RolePrimary {
		panic("simdisk: barrier on secondary")
	}
	if len(d.peers) > 0 {
		count := d.epochWrites[e]
		delete(d.epochWrites, e)
		for i, peer := range d.peers {
			var b *barrier
			if n := len(d.freeBarriers); n > 0 {
				b = d.freeBarriers[n-1]
				d.freeBarriers = d.freeBarriers[:n-1]
			} else {
				b = &barrier{d: d}
				b.deliverFn = b.deliver
			}
			b.peer, b.epoch, b.count = peer, e, count
			d.links[i].Transfer(24, b.deliverFn)
		}
	}
}

func (d *DRBD) receiveWrite(op WriteOp) {
	d.buffer = append(d.buffer, op)
	d.recvWrites[op.Epoch]++
}

func (d *DRBD) receiveBarrier(e uint64, count int64) {
	if d.recvWrites[e] == count {
		d.verified[e] = true
	}
	if d.OnBarrier != nil {
		d.OnBarrier(e)
	}
}

// BarrierReceived reports whether epoch e's own barrier arrived with a
// matching write count — every one of the epoch's writes is in the
// buffer. A later epoch's barrier does not vouch for e: during a link
// outage e's writes and barrier can be dropped while a post-heal barrier
// still gets through.
func (d *DRBD) BarrierReceived(e uint64) bool {
	return d.verified[e] || (d.resynced && e <= d.resyncEpoch)
}

// Buffered returns the number of buffered write operations.
func (d *DRBD) Buffered() int { return len(d.buffer) }

// Commit applies all buffered writes with epoch <= e to the local disk,
// in arrival order. The secondary calls this once the corresponding
// container state is committed (§II-A: epoch k's writes are applied
// during epoch k+1). The disk adopts each op's block instead of copying
// it.
func (d *DRBD) Commit(e uint64) error {
	if d.Role != RoleSecondary {
		return fmt.Errorf("simdisk: commit on primary end")
	}
	for i := range d.buffer {
		op := &d.buffer[i]
		if op.Epoch <= e {
			d.Local.adopt(op.Block, op.Data)
			op.Data = nil // the disk owns it now
			if op.Epoch > d.committed {
				d.committed = op.Epoch
			}
		}
	}
	d.keepBuffered(func(op WriteOp) bool { return op.Epoch > e })
	for k := range d.verified {
		if k <= e {
			delete(d.verified, k)
		}
	}
	for k := range d.recvWrites {
		if k <= e {
			delete(d.recvWrites, k)
		}
	}
	return nil
}

// ApplyResync installs a full disk snapshot covering everything through
// epoch e: the secondary disk's content is replaced with the snapshot,
// buffered writes and per-epoch bookkeeping at or below e are dropped
// (the snapshot supersedes them), and e is marked verified. Used to
// recover after a replication-link outage loses an unknown set of
// writes and barriers.
func (d *DRBD) ApplyResync(src *Disk, e uint64) error {
	if d.Role != RoleSecondary {
		return fmt.Errorf("simdisk: resync on %v end", d.Role)
	}
	d.Local.CopyFrom(src)
	d.keepBuffered(func(op WriteOp) bool { return op.Epoch > e })
	for k := range d.verified {
		if k <= e {
			delete(d.verified, k)
		}
	}
	for k := range d.recvWrites {
		if k <= e {
			delete(d.recvWrites, k)
		}
	}
	if e > d.committed {
		d.committed = e
	}
	if !d.resynced || e > d.resyncEpoch {
		d.resyncEpoch = e
		d.resynced = true
	}
	if d.OnBarrier != nil {
		d.OnBarrier(e)
	}
	return nil
}

// ResyncedThrough returns the newest epoch covered by an applied resync
// snapshot, if any.
func (d *DRBD) ResyncedThrough() (uint64, bool) { return d.resyncEpoch, d.resynced }

// DiscardAbove drops buffered writes with epoch > e; on failover the
// backup discards the writes of any epoch whose container state was not
// committed.
func (d *DRBD) DiscardAbove(e uint64) {
	d.keepBuffered(func(op WriteOp) bool { return op.Epoch <= e })
}

// keepBuffered filters the write buffer in place, keeping arrival order,
// returns the dropped ops' blocks to the page pool (an op is its block's
// only holder; Commit has already handed its committed ones to the
// disk), and clears the vacated tail while the buffer's array is reused
// by later writes.
func (d *DRBD) keepBuffered(keep func(WriteOp) bool) {
	rest := d.buffer[:0]
	for _, op := range d.buffer {
		if keep(op) {
			rest = append(rest, op)
		} else {
			simkernel.RecyclePage(op.Data)
		}
	}
	clear(d.buffer[len(rest):])
	d.buffer = rest
}

// Committed returns the highest epoch applied to the local disk.
func (d *DRBD) Committed() uint64 { return d.committed }

// Detach disconnects a primary end from every peer: subsequent writes
// apply locally only and nothing further is shipped. Used when the
// backup's host is declared dead (fencing) — the primary keeps serving
// from its local disk until a new DRBD pair is stacked by re-protection.
func (d *DRBD) Detach() error {
	if d.Role != RolePrimary {
		return fmt.Errorf("simdisk: detach on %v end", d.Role)
	}
	d.peers = nil
	d.links = nil
	d.epochWrites = make(map[uint64]int64)
	return nil
}

// Promote turns a secondary into a standalone primary during failover:
// the restored container's file system writes to the (previously
// backup) disk directly. Any still-buffered writes must be committed or
// discarded before promotion.
func (d *DRBD) Promote() error {
	if d.Role != RoleSecondary {
		return fmt.Errorf("simdisk: promote on %v end", d.Role)
	}
	if len(d.buffer) != 0 {
		return fmt.Errorf("simdisk: promote with %d uncommitted writes buffered", len(d.buffer))
	}
	d.Role = RolePrimary
	d.peers = nil
	d.links = nil
	if d.epochWrites == nil {
		d.epochWrites = make(map[uint64]int64)
	}
	return nil
}
