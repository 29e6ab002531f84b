package simkernel

import "nilicon/internal/simtime"

// Costs is the calibrated virtual-time cost model for kernel interfaces.
// Values are taken from numbers quoted in the NiLiCon paper where
// available (per-interface aggregates were divided by the workload sizes
// the paper reports); the remaining values are fitted so that aggregate
// stop times land near Table III. See DESIGN.md §1 and EXPERIMENTS.md for
// the calibration table.
type Costs struct {
	// SyscallBase is the fixed cost of entering/leaving any system call.
	SyscallBase simtime.Duration

	// --- Memory management -------------------------------------------------

	// MinorFault is charged the first time a page is touched (demand
	// allocation).
	MinorFault simtime.Duration
	// SoftDirtyFault is charged at the first write to a page after the
	// soft-dirty bits were cleared (NiLiCon's runtime dirty tracking).
	SoftDirtyFault simtime.Duration
	// VMExit is charged at the first write to a write-protected page when
	// hypervisor-style tracking is enabled (MC's runtime dirty tracking).
	// The paper attributes MC's higher runtime overhead to VM exit/entry
	// (§VII-C), so VMExit >> SoftDirtyFault.
	VMExit simtime.Duration

	// --- procfs / netlink VMA collection (§V-D) -----------------------------

	// SmapsPerVMA is the per-VMA cost of reading /proc/pid/smaps,
	// including generating the formatted text.
	SmapsPerVMA simtime.Duration
	// SmapsPerPage is the per-resident-page cost of the page statistics
	// smaps computes but checkpointing does not need (cause (2) in §V).
	SmapsPerPage simtime.Duration
	// NetlinkPerVMA is the per-VMA cost of the binary task-diag dump.
	NetlinkPerVMA simtime.Duration

	// PagemapPerPage is the per-resident-page cost of scanning
	// /proc/pid/pagemap for soft-dirty bits. Paper: 49K pages → 1441 µs,
	// 111K pages → 2887 µs, i.e. ≈ 27 ns/page.
	PagemapPerPage simtime.Duration
	// ClearRefsPerPage is the per-resident-page cost of writing
	// /proc/pid/clear_refs to restart tracking.
	ClearRefsPerPage simtime.Duration

	// --- Page content transfer (§V-D) ---------------------------------------

	// PageCopyPipe is the per-page cost of moving page contents from the
	// parasite to the agent through a pipe (multiple syscalls per batch).
	PageCopyPipe simtime.Duration
	// PageCopyShared is the per-page cost with the shared-memory region.
	PageCopyShared simtime.Duration

	// --- Per-object state collection ---------------------------------------

	// CheckpointBase is the fixed per-checkpoint cost of the optimized
	// agent: coordinating the parasite, fdinfo parsing, image metadata,
	// and assorted small kernel interface reads that do not scale with
	// container size. Fitted so the smallest Table III stop time
	// (swaptions, 5.1 ms) is reproduced.
	CheckpointBase simtime.Duration
	// ParasiteInject is the per-process cost of mapping the parasite
	// code into a checkpointed process via ptrace (§II-B).
	ParasiteInject simtime.Duration
	// ThreadState is the cost of retrieving one thread's registers,
	// signal mask and scheduling policy. Paper §VII-C: 148 µs for 1
	// thread → 4 ms for 32 threads, ≈ 130 µs/thread.
	ThreadState simtime.Duration
	// FDEntry is the per-file-descriptor cost of collecting fd state.
	FDEntry simtime.Duration
	// StatFile is the cost of one stat() call, paid per memory-mapped
	// file when the mapped-file cache is disabled (cause (1) in §V).
	StatFile simtime.Duration
	// TimerEntry is the per-posix-timer collection cost.
	TimerEntry simtime.Duration

	// --- Socket repair mode --------------------------------------------------

	// SockRepairPerSocket is the cost of getting one TCP socket's repair
	// state (sequence numbers, queues). Paper §VII-C: 1.2 ms for ~8
	// sockets to 13 ms for 128 sockets ≈ 100 µs/socket.
	SockRepairPerSocket simtime.Duration
	// SockRepairPerKB is the additional cost per KiB of queued data.
	SockRepairPerKB simtime.Duration

	// --- Infrequently-modified state (§V-B) ----------------------------------
	// Paper: collecting these for streamcluster takes ≈160 ms total, with
	// namespace collection alone up to 100 ms (§I).

	// NamespaceCollect is the cost of collecting namespace information.
	NamespaceCollect simtime.Duration
	// MountCollect is the cost of walking the mount table.
	MountCollect simtime.Duration
	// CgroupCollect is the cost of collecting control-group configuration.
	CgroupCollect simtime.Duration
	// DeviceCollect is the cost of collecting device-file state.
	DeviceCollect simtime.Duration
	// CacheCheck is the cost of verifying the ftrace-backed cache is
	// still valid (one flag check per component).
	CacheCheck simtime.Duration

	// --- Freezer (§V-A) -------------------------------------------------------

	// FreezeSignal is the per-thread cost of delivering the virtual signal.
	FreezeSignal simtime.Duration
	// FreezeSettleUser is how long a thread running user code takes to
	// reach the frozen state.
	FreezeSettleUser simtime.Duration
	// FreezeSettleSyscall is the extra settle time for a thread that must
	// first be forced out of a system call (e.g. a memory-management
	// call between computation phases). This is what produces the
	// stop-time tail the paper observes for streamcluster (Table IV:
	// p90 ≈ 2× p50 with no growth in state size).
	FreezeSettleSyscall simtime.Duration
	// FreezeSleep is the fixed sleep of stock CRIU between issuing the
	// virtual signals and checking thread state (100 ms, §V-A).
	FreezeSleep simtime.Duration
	// FreezePollInterval is NiLiCon's polling granularity.
	FreezePollInterval simtime.Duration

	// --- Network input blocking (§V-C) ----------------------------------------

	// FirewallSetup is the per-epoch cost of installing+removing firewall
	// rules (stock CRIU input blocking): 7 ms.
	FirewallSetup simtime.Duration
	// PlugBlock is the cost of plugging/unplugging the qdisc: 43 µs.
	PlugBlock simtime.Duration

	// --- File-system cache (§III) ---------------------------------------------

	// FgetfcPerEntry is the per-DNC-entry cost of the new fgetfc syscall.
	FgetfcPerEntry simtime.Duration

	// --- Delta-compressed replication wire format (DESIGN.md §8) --------------

	// PageHash is the cost of FNV-1a hashing one 4 KiB page (the content
	// tag on every encoded frame): ≈1 byte/cycle on the modeled core.
	PageHash simtime.Duration
	// PageDiff is the cost of one 4 KiB page-pair comparison: the XOR
	// diff scan when building a delta patch, or the byte-verification of
	// a dedup donor (vectorized, several bytes/cycle).
	PageDiff simtime.Duration
	// PageDeltaApply is the backup-side cost of applying a sparse XOR
	// patch to reconstruct a page.
	PageDeltaApply simtime.Duration

	// --- Restore ---------------------------------------------------------------

	// RestoreBase is the fixed cost of recreating the container skeleton
	// (namespaces, cgroups, mounts, process tree).
	RestoreBase simtime.Duration
	// RestorePerPage is the per-page cost of re-populating memory.
	RestorePerPage simtime.Duration
	// RestorePerSocket is the per-socket cost of repair-mode restore.
	RestorePerSocket simtime.Duration
	// RestorePerFD is the per-descriptor cost of reopening files.
	RestorePerFD simtime.Duration
	// RestoreFsPerEntry is the per-entry cost of replaying the fs cache
	// (pwrite for page cache, chown for inode cache).
	RestoreFsPerEntry simtime.Duration

	// --- State transfer ---------------------------------------------------------

	// CRIUForkSetup is the per-checkpoint cost of forking a fresh CRIU
	// process and rebuilding its view of the container (walking /proc,
	// re-opening interfaces, re-establishing parasite infrastructure).
	// NiLiCon's optimized CRIU keeps this infrastructure resident.
	// Fitted so the Table I "Basic implementation" rung lands near the
	// paper's 1940%.
	CRIUForkSetup simtime.Duration
	// ProxyPerMB is the extra copy cost per MiB when the stock CRIU proxy
	// processes intermediate the transfer (§V-A third optimization).
	ProxyPerMB simtime.Duration
	// ProxyFixed is the fixed per-checkpoint overhead of the proxies.
	ProxyFixed simtime.Duration
}

// DefaultCosts returns the calibrated cost model described in DESIGN.md.
func DefaultCosts() *Costs {
	return &Costs{
		SyscallBase: 600 * simtime.Nanosecond,

		MinorFault:     250 * simtime.Nanosecond,
		SoftDirtyFault: 350 * simtime.Nanosecond,
		VMExit:         600 * simtime.Nanosecond,

		SmapsPerVMA:   30 * simtime.Microsecond,
		SmapsPerPage:  80 * simtime.Nanosecond,
		NetlinkPerVMA: 2 * simtime.Microsecond,

		PagemapPerPage:   27 * simtime.Nanosecond,
		ClearRefsPerPage: 8 * simtime.Nanosecond,

		PageCopyPipe:   2 * simtime.Microsecond,
		PageCopyShared: 450 * simtime.Nanosecond,

		CheckpointBase: 3800 * simtime.Microsecond,
		ParasiteInject: 120 * simtime.Microsecond,
		ThreadState:    130 * simtime.Microsecond,
		FDEntry:        4 * simtime.Microsecond,
		StatFile:       8 * simtime.Microsecond,
		TimerEntry:     3 * simtime.Microsecond,

		SockRepairPerSocket: 100 * simtime.Microsecond,
		SockRepairPerKB:     900 * simtime.Nanosecond,

		NamespaceCollect: 100 * simtime.Millisecond,
		MountCollect:     15 * simtime.Millisecond,
		CgroupCollect:    40 * simtime.Millisecond,
		DeviceCollect:    5 * simtime.Millisecond,
		CacheCheck:       12 * simtime.Microsecond,

		FreezeSignal:        5 * simtime.Microsecond,
		FreezeSettleUser:    40 * simtime.Microsecond,
		FreezeSettleSyscall: 5 * simtime.Millisecond,
		FreezeSleep:         100 * simtime.Millisecond,
		FreezePollInterval:  50 * simtime.Microsecond,

		FirewallSetup: 7 * simtime.Millisecond,
		PlugBlock:     43 * simtime.Microsecond,

		FgetfcPerEntry: 2 * simtime.Microsecond,

		PageHash:       1200 * simtime.Nanosecond,
		PageDiff:       400 * simtime.Nanosecond,
		PageDeltaApply: 300 * simtime.Nanosecond,

		RestoreBase:       150 * simtime.Millisecond,
		RestorePerPage:    2500 * simtime.Nanosecond,
		RestorePerSocket:  180 * simtime.Microsecond,
		RestorePerFD:      25 * simtime.Microsecond,
		RestoreFsPerEntry: 5 * simtime.Microsecond,

		CRIUForkSetup: 300 * simtime.Millisecond,
		ProxyPerMB:    1200 * simtime.Microsecond,
		ProxyFixed:    700 * simtime.Microsecond,
	}
}
