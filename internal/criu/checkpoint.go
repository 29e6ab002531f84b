package criu

import (
	"sort"

	"nilicon/internal/container"
	"nilicon/internal/simkernel"
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

// NiLiConOptions returns the fully optimized configuration.
func NiLiConOptions() Options {
	return Options{
		FreezePoll:      true,
		NetlinkVMA:      true,
		SharedMemPages:  true,
		CacheInfrequent: true,
	}
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
	for _, p := range ctr.Procs {
		k.Charge(c.ParasiteInject)
		pi := ProcessImage{PID: p.PID, Name: p.Name}

		tm := k.StartMeter()
		for _, th := range p.Threads {
			pi.Threads = append(pi.Threads, k.GetThreadState(th))
		}
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
		var pns []uint64
		if img.Full {
			// Full dump: every resident page; also start soft-dirty
			// tracking for subsequent incremental checkpoints.
			pns = make([]uint64, 0, p.Mem.ResidentPages())
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
			pns = k.ReadPagemap(p)
			k.ClearRefs(p)
		}
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

		img.Procs = append(img.Procs, pi)
	}

	// --- Sockets (§II-B) ----------------------------------------------------
	sm := k.StartMeter()
	for _, s := range ctr.Stack.Sockets() {
		img.Sockets = append(img.Sockets, ctr.Stack.SnapshotSocket(s))
	}
	for port := range listenPorts(ctr) {
		img.Listeners = append(img.Listeners, port)
	}
	sort.Ints(img.Listeners)
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

// listenPorts returns the set of ports the container's stack listens on.
func listenPorts(ctr *container.Container) map[int]bool {
	return ctr.Stack.ListenPorts()
}
