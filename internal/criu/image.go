// Package criu is the simulated CRIU (Checkpoint/Restore In Userspace)
// engine, version-3.11-equivalent, with NiLiCon's modifications: the
// parasite shared-memory page path, netlink VMA collection, polling
// freeze wait, direct (proxy-less) transfer, incremental soft-dirty
// checkpoints, the infrequently-modified-state cache driven by the
// ftrace tracker, and radix-tree page storage at the backup.
package criu

import (
	"nilicon/internal/simfs"
	"nilicon/internal/simkernel"
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
)

// PageImage is one checkpointed memory page.
type PageImage struct {
	PN   uint64 // page number within the process address space
	Data []byte
}

// ProcessImage is one process's checkpointed state. Pages holds the
// verbatim dirty pages as collected; when the delta encoder rewrites the
// image for the wire (DESIGN.md §8), Pages is replaced by Frames.
type ProcessImage struct {
	PID     int
	Name    string
	Libs    int
	Threads []simkernel.ThreadSnapshot
	VMAs    []simkernel.VMAInfo
	FDs     []simkernel.FDSnapshot
	Timers  []simkernel.TimerSnapshot
	Pages   []PageImage
	Frames  []PageFrame
}

// InfrequentState bundles the in-kernel container state components that
// rarely change (§V-B): control groups, namespaces, mount points,
// device files, and memory-mapped files.
type InfrequentState struct {
	Cgroup      simkernel.CgroupSnapshot
	Namespaces  []simkernel.NamespaceSnapshot
	Mounts      []simkernel.Mount
	Devices     []simkernel.DeviceFile
	MappedFiles map[int][]string // PID → mapped file paths
}

// Image is one (incremental) container checkpoint in the format the
// backup agent buffers and CRIU restore consumes.
type Image struct {
	ContainerID string
	IP          simnet.Addr
	Cores       int
	Epoch       uint64
	// Full marks a non-incremental checkpoint (all resident pages).
	Full bool

	Procs      []ProcessImage
	Sockets    []simnet.SocketSnapshot
	Listeners  []int
	FSCache    simfs.CacheSnapshot
	Infrequent InfrequentState

	// InfrequentCached marks that Infrequent was served from the
	// NiLiCon state cache rather than re-collected (§V-B).
	InfrequentCached bool

	// FSComplete marks that FSCache is a complete dump of the fs cache
	// rather than the incremental DNC delta. Only an image with a
	// complete dump may serve as a fresh baseline at the backup: after
	// epochs are lost to a link outage, the DNC deltas of the lost
	// epochs are gone for good and an incremental image cannot stand in
	// for them.
	FSComplete bool

	// DiskResync marks that this checkpoint ships with a full disk
	// snapshot on the same flow (full resynchronization after a
	// replication-link outage). The backup must not acknowledge the
	// epoch until the snapshot has been applied: the DRBD writes of the
	// lost epochs never arrived, so the barrier stream alone cannot
	// certify the disk.
	DiskResync bool

	// Encoded marks that the dirty pages were rewritten into wire
	// frames (ProcessImage.Frames) by the delta encoder; StreamChunks
	// then splits WireSizeBytes instead of the logical SizeBytes.
	Encoded bool

	// AppState is the workload's user-space state snapshot.
	AppState any

	// SharesFrames copies the container's flag at capture time: the
	// lent pages may also be another container's frames.
	SharesFrames bool

	// LogSeqThrough is the highest nondeterminism-log segment sequence
	// sealed before this checkpoint's freeze (HyCoR mode, DESIGN.md §12).
	// Every record in segments ≤ LogSeqThrough describes execution the
	// checkpoint already contains, so committing this image implicitly
	// commits those segments — even ones lost on the wire — and lets the
	// backup truncate its log to segments newer than the checkpoint.
	LogSeqThrough uint64
}

// Clone returns a copy of the image that is safe to deliver to an
// additional replica in a fan-out chain. Every page-content buffer —
// verbatim dirty pages, full-frame payloads, XOR patches, fs-cache
// pages — is deep-copied: each replica's page store owns what it
// commits, and a raw store recycles the verbatim pages it supersedes
// (DESIGN.md §8), so two replicas must never share one buffer. The
// verbatim copies come from simkernel's page pool, so a replica store
// recycles them exactly as slot 0's store recycles the originals.
// Structured snapshots (threads, VMAs, sockets, infrequent state) and
// AppState are shared read-only; at most one replica of a generation
// ever restores them.
func (img *Image) Clone() *Image {
	cp := *img
	cp.Procs = make([]ProcessImage, len(img.Procs))
	for i := range img.Procs {
		p := img.Procs[i]
		if len(p.Pages) > 0 {
			pages := make([]PageImage, len(p.Pages))
			for j, pg := range p.Pages {
				pages[j] = PageImage{PN: pg.PN, Data: simkernel.CopyPage(pg.Data)}
			}
			p.Pages = pages
		}
		if len(p.Frames) > 0 {
			frames := make([]PageFrame, len(p.Frames))
			for j, f := range p.Frames {
				if f.Data != nil {
					d := make([]byte, len(f.Data))
					copy(d, f.Data)
					f.Data = d
				}
				if f.Delta != nil {
					d := make([]byte, len(f.Delta))
					copy(d, f.Delta)
					f.Delta = d
				}
				frames[j] = f
			}
			p.Frames = frames
		}
		cp.Procs[i] = p
	}
	if len(img.FSCache.Pages) > 0 {
		pages := make([]simfs.PageEntry, len(img.FSCache.Pages))
		for j, pe := range img.FSCache.Pages {
			d := make([]byte, len(pe.Data))
			copy(d, pe.Data)
			pe.Data = d
			pages[j] = pe
		}
		cp.FSCache.Pages = pages
	}
	return &cp
}

// ReleaseLost drops the memory-page payload of an image whose transfer
// was lost: the receiver never saw it, and a lost image is never sent
// again (the repair is a fresh full checkpoint). The buffers are only
// dereferenced, never recycled: a verbatim page is lent from the
// container and may still be its live frame, and encoded frame payloads
// are co-owned by the delta encoder's bases (DESIGN.md §8).
func (img *Image) ReleaseLost() {
	for i := range img.Procs {
		p := &img.Procs[i]
		p.Pages, p.Frames = nil, nil
	}
}

// PayloadBytes returns the memory-page content the image holds:
// verbatim pages plus encoded frame data and patches.
func (img *Image) PayloadBytes() int64 {
	var n int64
	for i := range img.Procs {
		p := &img.Procs[i]
		for _, pg := range p.Pages {
			n += int64(len(pg.Data))
		}
		for _, f := range p.Frames {
			n += int64(len(f.Data) + len(f.Delta))
		}
	}
	return n
}

// DirtyPages returns the number of memory pages in the image.
func (img *Image) DirtyPages() int {
	n := 0
	for i := range img.Procs {
		n += len(img.Procs[i].Pages) + len(img.Procs[i].Frames)
	}
	return n
}

// SizeBytes returns the modeled transfer size of the image: dominated by
// dirty pages and socket read/write queues (the paper reports pages at
// 85-95% of transferred state), plus per-object records.
func (img *Image) SizeBytes() int64 {
	var n int64
	for i := range img.Procs {
		p := &img.Procs[i]
		n += int64(len(p.Pages)+len(p.Frames)) * (simkernel.PageSize + 16)
	}
	return n + img.nonPageBytes()
}

// WireSizeBytes returns the image's actual transfer size: the encoded
// frames' wire bytes when the delta encoder ran, the logical size
// otherwise. Non-page state always travels verbatim.
func (img *Image) WireSizeBytes() int64 {
	if !img.Encoded {
		return img.SizeBytes()
	}
	var n int64
	for i := range img.Procs {
		p := &img.Procs[i]
		n += int64(len(p.Pages)) * (simkernel.PageSize + 16)
		for fi := range p.Frames {
			n += p.Frames[fi].WireBytes()
		}
	}
	return n + img.nonPageBytes()
}

// nonPageBytes is the non-page portion of the image's transfer size:
// per-object records, socket queues, the fs cache and infrequent state.
func (img *Image) nonPageBytes() int64 {
	var n int64
	for i := range img.Procs {
		p := &img.Procs[i]
		n += int64(len(p.Threads)) * 256
		n += int64(len(p.VMAs)) * 64
		n += int64(len(p.FDs)) * 64
		n += int64(len(p.Timers)) * 32
	}
	for _, s := range img.Sockets {
		n += s.Size()
	}
	n += img.FSCache.Size()
	if !img.InfrequentCached {
		// Freshly collected infrequent state rides along in full.
		n += int64(len(img.Infrequent.Mounts))*128 +
			int64(len(img.Infrequent.Namespaces))*128 +
			int64(len(img.Infrequent.Devices))*64 + 512
	} else {
		// Cached: only a validity marker travels.
		n += 16
	}
	n += 1024 // container descriptor
	return n
}

// StreamChunks splits the image's wire size into transfer-sized pieces
// for streaming over the replication link. The image is streamable as
// soon as collection ends: the pages were either copied into the staging
// buffer during the stop (§V-D) or write-protected for lazy
// copy-on-write capture (pipelined transfer), so the bytes are stable
// while the container runs. The last chunk carries the remainder.
func (img *Image) StreamChunks(chunkBytes int64) []int64 {
	total := img.WireSizeBytes()
	if chunkBytes <= 0 || total <= chunkBytes {
		return []int64{total}
	}
	chunks := make([]int64, 0, (total+chunkBytes-1)/chunkBytes)
	for total > chunkBytes {
		chunks = append(chunks, chunkBytes)
		total -= chunkBytes
	}
	return append(chunks, total)
}

// CheckpointStats reports where a checkpoint's stop time went; the
// harness aggregates these into Tables III and IV.
type CheckpointStats struct {
	// FreezeWait is time spent waiting for the container to freeze.
	FreezeWait simtime.Duration
	// Collect is time spent collecting state through kernel interfaces
	// (including the dirty-page copy to the staging buffer).
	Collect simtime.Duration
	// MemCopy is the portion of Collect spent copying page contents.
	MemCopy simtime.Duration
	// SocketCollect is the portion spent on socket repair-mode reads.
	SocketCollect simtime.Duration
	// ThreadCollect is the portion spent on per-thread state.
	ThreadCollect simtime.Duration
	// VMACollect is the portion spent reading VMA information.
	VMACollect simtime.Duration
	// InfrequentCollect is the portion spent on rarely-modified state.
	InfrequentCollect simtime.Duration

	DirtyPages int
	StateBytes int64
}

// StopTime is the total container pause: freeze wait plus collection.
func (cs CheckpointStats) StopTime() simtime.Duration {
	return cs.FreezeWait + cs.Collect
}

// StopTimeExcludingCopy is the container pause when the dirty-page copy
// is deferred out of the stop phase (pipelined transfer write-protects
// the pages and copies them lazily while the image streams): freeze wait
// plus collection minus the page-copy component.
func (cs CheckpointStats) StopTimeExcludingCopy() simtime.Duration {
	return cs.FreezeWait + cs.Collect - cs.MemCopy
}
