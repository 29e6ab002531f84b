package criu

import (
	"slices"

	"nilicon/internal/container"
	"nilicon/internal/simkernel"
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
)

// Options selects between stock-CRIU and NiLiCon-optimized code paths;
// each flag corresponds to one row of Table I. Every configuration is
// incremental: soft-dirty tracking checkpoints only the pages modified
// since the previous checkpoint (§II-B), and the first checkpoint (or a
// resync baseline) is full. Every configuration also checkpoints the
// file-system cache through the DNC state and fgetfc (§III) rather than
// flushing it as stock CRIU does.
type Options struct {
	// FreezePoll polls thread state instead of stock CRIU's fixed 100 ms
	// sleep after issuing the virtual signals (§V-A).
	FreezePoll bool
	// NetlinkVMA collects VMAs through the netlink task-diag patch
	// instead of /proc/pid/smaps (§V-D).
	NetlinkVMA bool
	// SharedMemPages transfers dirty-page contents from the parasite
	// through a shared-memory region instead of a pipe (§V-D).
	SharedMemPages bool
	// CacheInfrequent reuses cached control-group/namespace/mount/
	// device/mapped-file state unless the ftrace tracker saw a change
	// (§V-B).
	CacheInfrequent bool
}

// Engine checkpoints one container repeatedly.
type Engine struct {
	Ctr  *container.Container
	Opts Options

	tracker          *StateTracker
	cachedInfrequent *InfrequentState
	epoch            uint64
	first            bool
	forceFull        bool

	// prevProcs is the previous image's process list. A checkpoint
	// still collects (and charges) every process and thread, but shares
	// a snapshot, or a whole list, that did not change with that image
	// (images are read-only once built, apart from the page content
	// commit and ReleaseLost drop).
	prevProcs []ProcessImage
	// pns is the page-number list a checkpoint fills, kept for the next.
	pns []uint64
}

// NewEngine creates a checkpoint engine for the container. When the
// infrequent-state cache is enabled, the ftrace tracker is installed on
// the container's host kernel.
func NewEngine(ctr *container.Container, opts Options) *Engine {
	e := &Engine{Ctr: ctr, Opts: opts, first: true}
	if opts.CacheInfrequent {
		e.tracker = NewStateTracker(ctr.Host.Kernel, ctr.ID)
	}
	return e
}

// Close releases the tracker hooks.
func (e *Engine) Close() {
	if e.tracker != nil {
		e.tracker.Close()
	}
}

// ForceFull makes the next checkpoint a full one with a complete
// fs-cache dump (FSComplete) — the resynchronization baseline the
// primary ships after the backup reports lost epochs.
func (e *Engine) ForceFull() { e.forceFull = true }

// Checkpoint freezes the container, collects a (full or incremental)
// checkpoint image, and returns it together with the stop-time
// breakdown. The container is left frozen; the caller resumes it after
// accounting for the stop time (and, without a staging buffer, after
// the state transfer).
func (e *Engine) Checkpoint() (*Image, CheckpointStats) {
	ctr := e.Ctr
	k := ctr.Host.Kernel
	c := k.Costs
	var stats CheckpointStats

	// --- Freeze (§II-B, §V-A) -------------------------------------------
	fm := k.StartMeter()
	settle := ctr.Freeze()
	signalCost := fm.Stop()
	if e.Opts.FreezePoll {
		// Poll until all threads are frozen: the wait is the settle time
		// rounded up to the polling granularity.
		polls := (settle + c.FreezePollInterval - 1) / c.FreezePollInterval
		stats.FreezeWait = signalCost + simtime.Duration(polls)*c.FreezePollInterval
	} else {
		// Stock CRIU: sleep 100 ms, then check.
		wait := c.FreezeSleep
		for wait < settle {
			wait += c.FreezeSleep
		}
		stats.FreezeWait = signalCost + wait
	}

	resync := e.forceFull
	e.forceFull = false
	img := &Image{
		ContainerID:  ctr.ID,
		IP:           ctr.IP,
		Cores:        ctr.Cores,
		Epoch:        e.epoch,
		Full:         e.first || resync,
		FSComplete:   resync,
		SharesFrames: ctr.SharesFrames,
	}

	m := k.StartMeter()
	k.Charge(c.CheckpointBase)

	// --- Per-process state ------------------------------------------------
	procs := sharedList[ProcessImage]{prev: e.prevProcs}
	for procIdx, p := range ctr.Procs {
		k.Charge(c.ParasiteInject)
		pi := ProcessImage{PID: p.PID, Name: p.Name}

		tm := k.StartMeter()
		var prevThreads []simkernel.ThreadSnapshot
		if procIdx < len(e.prevProcs) && e.prevProcs[procIdx].PID == p.PID {
			prevThreads = e.prevProcs[procIdx].Threads
		}
		pi.Threads = collectThreads(k, p, prevThreads)
		stats.ThreadCollect += tm.Stop()

		vm := k.StartMeter()
		if e.Opts.NetlinkVMA {
			pi.VMAs = k.TaskDiagVMAs(p)
		} else {
			pi.VMAs = k.ReadSmaps(p)
		}
		stats.VMACollect += vm.Stop()

		pi.FDs = k.CollectFDs(p)
		pi.Timers = k.CollectTimers(p)

		// Memory pages (§II-B, §V-D).
		mm := k.StartMeter()
		pns := e.pns[:0]
		if img.Full {
			// Full dump: every resident page; also start soft-dirty
			// tracking for subsequent incremental checkpoints.
			pns = slices.Grow(pns, p.Mem.ResidentPages())
			for _, v := range p.Mem.VMAs() {
				for pn := v.Start / simkernel.PageSize; pn < v.End/simkernel.PageSize; pn++ {
					if p.Mem.PageData(pn) != nil {
						pns = append(pns, pn)
					}
				}
			}
			p.Mem.SetSoftDirtyTracking(true)
			k.ClearRefs(p)
		} else {
			pns = k.ReadPagemap(p, pns)
			k.ClearRefs(p)
		}
		e.pns = pns
		perPage := c.PageCopyPipe
		if e.Opts.SharedMemPages {
			perPage = c.PageCopyShared
		}
		pi.Pages = make([]PageImage, 0, len(pns))
		for _, pn := range pns {
			// The frame is lent, not copied: it is marked shared, so the
			// container's next write to the page goes to a fresh copy and
			// the image keeps the capture-time bytes (DESIGN.md §8). The
			// modelled copy into the staging buffer is still charged.
			data := p.Mem.SharePage(pn)
			if data == nil {
				continue
			}
			pi.Pages = append(pi.Pages, PageImage{PN: pn, Data: data})
			k.Charge(perPage)
		}
		stats.MemCopy += mm.Stop()

		procs.add(pi, len(ctr.Procs), func(prev *ProcessImage) bool { return sameProcess(prev, &pi) })
	}
	img.Procs = procs.list()
	e.prevProcs = img.Procs

	// --- Sockets (§II-B) ----------------------------------------------------
	sm := k.StartMeter()
	img.Sockets = e.collectSockets()
	if ports := ctr.Stack.ListenPortList(); len(ports) > 0 {
		img.Listeners = ports
	}
	stats.SocketCollect = sm.Stop()

	// --- File-system cache (§III) -------------------------------------------
	if resync {
		// Resync baseline: the incremental DNC deltas of epochs lost to
		// the outage are unrecoverable, so the whole cache travels.
		img.FSCache = ctr.FS.FgetfcFull()
	} else {
		img.FSCache = ctr.FS.Fgetfc()
	}

	// --- Infrequently-modified state (§V-B) ----------------------------------
	im := k.StartMeter()
	// A resync baseline must be self-contained: the backup NACKed
	// because epochs were lost, and if the outage swallowed the initial
	// synchronization the backup has no infrequent state for a cache
	// marker to refer to. Collect it fresh, like everything else in the
	// baseline.
	useCache := e.Opts.CacheInfrequent && e.cachedInfrequent != nil && !e.tracker.Dirty() && !resync
	if useCache {
		// One validity check per cached component.
		for i := 0; i < 5; i++ {
			k.Charge(c.CacheCheck)
		}
		img.Infrequent = *e.cachedInfrequent
		img.InfrequentCached = true
	} else {
		inf := InfrequentState{
			Cgroup:      k.CollectCgroup(ctr.Cgroup),
			Namespaces:  k.CollectNamespaces(ctr.NS),
			Mounts:      k.CollectMounts(ctr.Mounts),
			Devices:     k.CollectDevices(ctr.Devices),
			MappedFiles: make(map[int][]string),
		}
		for _, p := range ctr.Procs {
			inf.MappedFiles[p.PID] = k.StatMappedFiles(p)
		}
		img.Infrequent = inf
		if e.Opts.CacheInfrequent {
			e.cachedInfrequent = &inf
			e.tracker.Reset()
		}
	}
	stats.InfrequentCollect = im.Stop()

	// --- Application state ----------------------------------------------------
	if ctr.App != nil {
		img.AppState = ctr.App.SnapshotState()
	}

	stats.Collect = m.Stop()
	stats.DirtyPages = img.DirtyPages()
	stats.StateBytes = img.SizeBytes()

	e.first = false
	e.epoch++
	return img, stats
}

// collectThreads collects (and charges) every thread of p. It returns
// prev itself when no snapshot differs from it.
func collectThreads(k *simkernel.Kernel, p *simkernel.Process, prev []simkernel.ThreadSnapshot) []simkernel.ThreadSnapshot {
	l := sharedList[simkernel.ThreadSnapshot]{prev: prev}
	for _, th := range p.Threads {
		ts := k.GetThreadState(th)
		l.add(ts, len(p.Threads), func(was *simkernel.ThreadSnapshot) bool { return *was == ts })
	}
	return l.list()
}

// collectSockets collects (and charges) every socket of the container
// in creation order.
func (e *Engine) collectSockets() []simnet.SocketSnapshot {
	st := e.Ctr.Stack
	var out []simnet.SocketSnapshot
	for _, s := range st.Sockets() {
		out = append(out, st.SnapshotSocket(s))
	}
	return out
}

// sameProcess reports whether b, a fresh process image without pages,
// can be replaced by a, the previous image's: both hold no page
// content, and every snapshot list is the same list.
func sameProcess(a, b *ProcessImage) bool {
	return a.PID == b.PID && a.Name == b.Name &&
		len(a.Pages)+len(a.Frames)+len(b.Pages)+len(b.Frames) == 0 &&
		sameList(a.Threads, b.Threads) && sameList(a.VMAs, b.VMAs) &&
		sameList(a.FDs, b.FDs) && sameList(a.Timers, b.Timers)
}

// sameList reports whether a and b are the same list: the same length
// and, if not empty, the same backing array.
func sameList[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// sharedList builds a list element by element against the list prev
// the previous checkpoint built. While every element equals prev's
// element at its index, nothing is allocated, and list returns prev
// itself (or its prefix); at the first difference the list is copied
// out and continues on its own.
type sharedList[T any] struct {
	prev, out []T
	n         int
	diverged  bool
}

// add appends v; same reports whether prev's element at this index
// (which add passes it) equals v. size is the list's final length.
func (l *sharedList[T]) add(v T, size int, same func(*T) bool) {
	if !l.diverged {
		if l.n < len(l.prev) && same(&l.prev[l.n]) {
			l.n++
			return
		}
		l.diverged = true
		l.out = make([]T, l.n, size)
		copy(l.out, l.prev[:l.n])
	}
	l.out = append(l.out, v)
	l.n++
}

// list returns the built list.
func (l *sharedList[T]) list() []T {
	switch {
	case l.diverged:
		return l.out
	case l.n == len(l.prev):
		return l.prev
	case l.n == 0:
		return nil
	default:
		return l.prev[:l.n:l.n]
	}
}
