// Package cluster is the fleet control plane (DESIGN.md §9): it places N
// protected container pairs across a pool of simulated hosts with
// bounded capacity, aggregates the per-pair heartbeats of internal/core
// into a host-level failure detector, fails over every pair on a dead
// host concurrently, and re-protects the survivors onto spare capacity
// with admission control so resync traffic cannot starve the steady-state
// epochs of healthy pairs.
//
// The paper protects one container per primary/backup pair; this layer
// is the missing datacenter piece: each host owns one replication NIC
// whose bandwidth is arbitrated across all co-located pairs by the
// existing core.TransferScheduler, and each pair runs the unmodified
// single-pair machinery against a per-pair Cluster view. Everything is
// seeded-deterministic: a fleet run is a pure function of its Params.
package cluster

import (
	"fmt"

	"nilicon/internal/container"
	"nilicon/internal/core"
	"nilicon/internal/metrics"
	"nilicon/internal/simdisk"
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
	"nilicon/internal/trace"
)

// PairState is a protected pair's lifecycle state.
type PairState int

// Pair states.
const (
	// Protected: replication active, backup committed at least once or
	// initial sync in its first epochs.
	Protected PairState = iota
	// FailingOver: the primary's host was declared dead; recovery is
	// running on the backup.
	FailingOver
	// Degraded: the container serves clients but has no live backup
	// (post-failover or post-fence); queued for re-protection.
	Degraded
	// Resyncing: re-protection started; the new backup's initial
	// synchronization has not committed yet.
	Resyncing
	// Lost: both hosts died before recovery could run. The fault model's
	// boundary — NiLiCon tolerates a single failure per pair at a time.
	Lost
)

func (s PairState) String() string {
	switch s {
	case Protected:
		return "protected"
	case FailingOver:
		return "failing-over"
	case Degraded:
		return "degraded"
	case Resyncing:
		return "resyncing"
	case Lost:
		return "lost"
	default:
		return fmt.Sprintf("PairState(%d)", int(s))
	}
}

// Per-pair capacity reservations and each host's capacity (bookkeeping
// units for placement and admission; the simulation does not enforce
// them at page granularity).
const (
	pairCores       = 1
	pairPrimaryPgs  = 256
	pairBackupPgs   = 256
	hostCores       = 8
	hostPages       = 4096
	defaultResyncs  = 1
	detectorPeriod  = 30 * simtime.Millisecond
	reprotectPeriod = 10 * simtime.Millisecond
)

// Params configures a fleet. Workers, Pairs and Workload are
// required; the other zero values take defaults.
type Params struct {
	// Workers is the number of hosts that receive initial placements;
	// Spares hosts start empty and absorb re-protection.
	Workers int
	Spares  int
	// Pairs is how many protected pairs to place.
	Pairs int
	// Seed is read by nothing in the fleet (it is deterministic either
	// way); the benchmark's fleet sets it.
	Seed int64
	// Opts is the per-pair optimization set (core.AllOpts by default).
	Opts *core.OptSet
	// MaxConcurrentResyncs is the re-protection admission limit: how many
	// initial synchronizations may occupy replication NICs at once.
	MaxConcurrentResyncs int
	// Workload builds each pair's application (required).
	Workload WorkloadFactory
	// Lease configures per-pair output-release lease arbitration (zero
	// value = disabled, the pre-lease fleet behavior). Every pair built
	// or re-protected by the fleet inherits it.
	Lease core.LeaseConfig
	// Degrade selects each pair's degradation policy when its lease
	// expires with the backup unreachable (StrictSafety by default).
	Degrade core.DegradePolicy
	// Replicas is each protected container's total replica count
	// including the primary (an f+1 chain tolerating f simultaneous
	// failures; 2 = the classic pair, the default). Above 2 every
	// checkpoint fans out over the primary host's one replication NIC —
	// the wire cost scales with Replicas-1 and the fleet does not hide
	// it. Release is gated on every unfenced replica's ack.
	Replicas int
	// Zones partitions the host pool into failure domains: host i
	// belongs to zone i mod Zones. Chain placement spreads each chain's
	// replicas across distinct zones (zone anti-affinity), so losing an
	// entire zone leaves every chain with survivors in the others.
	// 0 or 1 disables zone awareness.
	Zones int
}

func (p *Params) defaults() {
	if p.MaxConcurrentResyncs <= 0 {
		p.MaxConcurrentResyncs = defaultResyncs
	}
	if p.Replicas < 2 {
		p.Replicas = 2
	}
	if p.Zones < 1 {
		p.Zones = 1
	}
}

// Host is one pool member: a simulated machine plus its replication NIC
// and the NIC's transfer scheduler, shared by every co-located pair.
type Host struct {
	Index int
	Name  string
	// Zone is the host's failure domain (Index mod Params.Zones); a
	// zone-kill campaign takes down every host of one zone at once.
	Zone int
	H    *container.Host
	// NIC is the host's one outbound replication link: it carries the
	// checkpoint streams and DRBD writes of pairs whose primary runs
	// here, and the acks/NACKs/backup-beats of pairs backed here.
	NIC *simnet.Link
	// Xfer arbitrates the NIC's bandwidth across co-located bulk flows.
	Xfer *core.TransferScheduler
	// Alive is the control plane's belief (flips on declareHostDead);
	// killed is the injected ground truth (KillHost). Oracles may compare
	// the two; the detector must only ever read Alive and the per-pair
	// heartbeat evidence.
	Alive  bool
	killed bool

	// PagesUsed tracks memory reservations.
	PagesUsed int
}

// Killed reports the injected ground truth (for oracles and traces).
func (h *Host) Killed() bool { return h.killed }

// Pair is one protected container.
type Pair struct {
	Index int
	ID    string
	IP    simnet.Addr

	// PrimaryHost is a pool index; it changes across failovers.
	PrimaryHost int

	// ReplicaHosts are the chain's backup replica host indices by chain
	// slot (one entry for a classic pair); they change across failovers
	// and re-protections. Fenced slots keep their entry so indices stay
	// aligned with the replicator's chain.
	ReplicaHosts []int

	State PairState
	Ctr   *container.Container
	Repl  *core.Replicator
	View  *core.Cluster
	// Vol is the pair's authoritative volume: the disk its file system
	// ultimately writes to (moves to the promoted backup volume on
	// failover).
	Vol      *simdisk.Disk
	Workload Workload

	// Failovers / Fences / Reprotects count completed transitions.
	Failovers  int
	Fences     int
	Reprotects int

	// LastFailover is the most recent recovery's stats.
	LastFailover *core.RecoveryStats

	// repairSlot is the chain slot currently resynchronizing after a
	// chain repair (AttachReplica on a running chain); -1 when none.
	repairSlot int
	// electedSlot is the chain slot the fleet detector chose to promote
	// while the pair is FailingOver; -1 outside a failover.
	electedSlot int
}

// Fleet is the control plane instance.
type Fleet struct {
	Params Params
	Clock  *simtime.Clock
	Switch *simnet.Switch
	Hosts  []*Host
	Pairs  []*Pair

	// Timeline is shared by every pair's replicator; records are
	// namespaced by pair ID (trace.EpochRecord.Pair).
	Timeline *trace.Timeline

	// FailoverLatencies samples detection→network-live per completed
	// failover (seconds).
	FailoverLatencies metrics.Stream

	// Eventf, when set, receives the control plane's event stream (the
	// chaos engine uses it to build the determinism-oracle trace).
	Eventf func(format string, args ...any)

	detector *simtime.Ticker
	pump     *simtime.Ticker
	started  bool
	quiesced bool

	// reprotectQ holds pair indices awaiting re-protection, in enqueue
	// order; resyncActive holds pairs whose initial sync is running.
	reprotectQ   []int
	resyncActive []int
}

// Placement is one chain's host assignment: Backups lists the backup
// replica hosts by chain slot (one for a classic pair).
type Placement struct {
	Pair    int
	Primary int
	Backups []int
}

// PlaceChains assigns n f+1 chains over the worker hosts: primaries
// round-robin, and each chain's replicas-1 backups are picked by a ring
// scan from the primary with zone anti-affinity — hosts in zones the
// chain does not already occupy are preferred, and only when no such
// host has capacity does the scan fall back to an already-used zone.
// Host i belongs to zone i mod zones, and every host has the fixed
// capacity hostCores and hostPages. With zones=1 and replicas=2 a
// pair's backup is the next worker in the ring with capacity. It takes
// replicas >= 2 and zones >= 1, as Params.defaults leaves them. It is a
// pure function so tests can exercise the placement engine without
// building a fleet.
func PlaceChains(n, workers, zones, replicas int) ([]Placement, error) {
	if workers < replicas {
		return nil, fmt.Errorf("cluster: anti-affine chain placement needs >= %d workers for %d replicas, have %d",
			replicas, replicas, workers)
	}
	cores := make([]int, workers)
	pages := make([]int, workers)
	out := make([]Placement, 0, n)
	for p := 0; p < n; p++ {
		pri := p % workers
		if cores[pri]+pairCores > hostCores {
			return nil, fmt.Errorf("cluster: host %d out of cores placing chain %d (%d/%d used)",
				pri, p, cores[pri], hostCores)
		}
		if pages[pri]+pairPrimaryPgs > hostPages {
			return nil, fmt.Errorf("cluster: host %d out of pages placing chain %d primary", pri, p)
		}
		used := map[int]bool{pri: true}
		usedZone := map[int]bool{pri % zones: true}
		backups := make([]int, 0, replicas-1)
		for s := 0; s < replicas-1; s++ {
			pick := -1
			for pass := 0; pass < 2 && pick < 0; pass++ {
				for o := 1; o <= workers; o++ {
					c := (pri + o) % workers
					if used[c] {
						continue
					}
					if pass == 0 && usedZone[c%zones] {
						continue
					}
					if pages[c]+pairBackupPgs > hostPages {
						continue
					}
					pick = c
					break
				}
			}
			if pick < 0 {
				return nil, fmt.Errorf("cluster: no host with capacity for chain %d replica %d", p, s+1)
			}
			used[pick] = true
			usedZone[pick%zones] = true
			pages[pick] += pairBackupPgs
			backups = append(backups, pick)
		}
		cores[pri] += pairCores
		pages[pri] += pairPrimaryPgs
		out = append(out, Placement{Pair: p, Primary: pri, Backups: backups})
	}
	return out, nil
}

// Place runs the placement engine NewSharded uses on params without
// building anything, so a shape that does not fit can be rejected
// before a run starts.
func Place(params Params) ([]Placement, error) {
	params.defaults()
	return PlaceChains(params.Pairs, params.Workers, params.Zones, params.Replicas)
}

// NewSharded builds the fleet — hosts, NICs, placements, per-pair
// volumes, DRBD pairs, workloads, and replicators — on one clock: the
// switch, the control plane (detector, re-protection pump) and every
// host schedule on it, under the engine's (when, seq) key. A host's NIC
// fans out to whichever hosts back its pairs. Nothing runs until Start.
// The name is the one the benchmark module (bench/) calls.
func NewSharded(clock *simtime.Clock, params Params) (*Fleet, error) {
	if params.Workload == nil {
		return nil, fmt.Errorf("cluster: a fleet needs a workload (Params.Workload is nil)")
	}
	params.defaults()
	placements, err := Place(params)
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		Params:   params,
		Clock:    clock,
		Switch:   simnet.NewSwitch(clock, core.LANLatency, core.ARPDelay),
		Timeline: &trace.Timeline{},
	}
	total := params.Workers + params.Spares
	for i := 0; i < total; i++ {
		name := fmt.Sprintf("host%02d", i)
		h := &Host{
			Index: i,
			Name:  name,
			Zone:  i % params.Zones,
			H:     container.NewHost(name, clock, f.Switch),
			NIC:   simnet.NewLink(clock, core.ReplLatency, core.ReplBW),
			Alive: true,
		}
		h.Xfer = core.NewTransferScheduler(clock, h.NIC)
		f.Hosts = append(f.Hosts, h)
	}

	for _, pl := range placements {
		pr, err := f.buildPair(pl)
		if err != nil {
			return nil, err
		}
		f.Pairs = append(f.Pairs, pr)
	}
	return f, nil
}

// buildPair creates one chain on its placement: a per-pair volume on
// the primary, and per backup replica a day-one clone of it on the
// replica's host, a DRBD secondary over the primary's NIC and a Cluster
// view; then the container (file system on the DRBD primary end), the
// workload, and the replicator over the views, arbitrated by the fleet
// detector whatever the chain's width.
func (f *Fleet) buildPair(pl Placement) (*Pair, error) {
	ph := f.Hosts[pl.Primary]
	id := fmt.Sprintf("p%02d", pl.Pair)
	ip := simnet.Addr(fmt.Sprintf("10.1.0.%d", pl.Pair+1))

	vol := simdisk.NewDisk()
	drbd := simdisk.NewDRBDPrimary(vol)
	views := make([]*core.Cluster, 0, len(pl.Backups))
	for _, bi := range pl.Backups {
		bh := f.Hosts[bi]
		v := f.view(ph, bh, drbd)
		v.DRBDBackup = drbd.AttachSecondary(vol.Clone(), ph.NIC)
		views = append(views, v)
		bh.PagesUsed += pairBackupPgs
	}

	ctr := container.Create(ph.H, container.Spec{
		ID: id, IP: ip, Cores: pairCores, Store: drbd,
	})
	pr := &Pair{
		Index:        pl.Pair,
		ID:           id,
		IP:           ip,
		PrimaryHost:  pl.Primary,
		ReplicaHosts: pl.Backups,
		State:        Protected,
		Ctr:          ctr,
		View:         views[0],
		Vol:          vol,
		repairSlot:   -1,
		electedSlot:  -1,
	}
	pr.Workload = f.Params.Workload(id)
	pr.Workload.Install(ctr)

	pr.Repl = core.NewChainReplicator(views, ctr, f.pairConfig(pr))
	pr.Repl.SetExternalArbiter()
	pr.Repl.Timeline = f.Timeline

	ph.PagesUsed += pairPrimaryPgs
	return pr, nil
}

// view builds the core.Cluster view of one chain replica on backup,
// sharing the primary side: its host, replication NIC and transfer
// scheduler (the fan-out cost is real and lands on one wire). drbd is
// the pair's DRBD primary end, or nil when core.ReprotectOnto builds a
// fresh one.
func (f *Fleet) view(primary, backup *Host, drbd *simdisk.DRBD) *core.Cluster {
	return &core.Cluster{
		Clock:       primary.H.Clock,
		Switch:      f.Switch,
		Primary:     primary.H,
		Backup:      backup.H,
		ReplLink:    primary.NIC,
		AckLink:     backup.NIC,
		Xfer:        primary.Xfer,
		DRBDPrimary: drbd,
	}
}

// liveBackups counts the pair's unfenced chain replicas (the chain's
// current strength; the protected container is the +1).
func (f *Fleet) liveBackups(pr *Pair) int {
	n := 0
	for i := 0; i < pr.Repl.Replicas(); i++ {
		if !pr.Repl.ReplicaFenced(i) {
			n++
		}
	}
	return n
}

// pairConfig derives a pair's replication config.
func (f *Fleet) pairConfig(pr *Pair) core.Config {
	cfg := core.DefaultConfig()
	if f.Params.Opts != nil {
		cfg.Opts = *f.Params.Opts
	}
	cfg.Lease = f.Params.Lease
	cfg.Degrade = f.Params.Degrade
	cfg.Reattach = func(rc core.RestoredContainer, state any) {
		pr.Workload.Reattach(rc, state)
	}
	cfg.OnRecovered = func(rc core.RestoredContainer, stats core.RecoveryStats) {
		f.pairRecovered(pr, rc, stats)
	}
	return cfg
}

// Start begins replication on every pair and arms the host-level
// detector and the re-protection pump.
func (f *Fleet) Start() {
	if f.started {
		return
	}
	f.started = true
	for _, pr := range f.Pairs {
		pr.Repl.Start()
	}
	f.detector = simtime.NewTicker(f.Clock, detectorPeriod, f.checkHosts)
	f.pump = simtime.NewTicker(f.Clock, reprotectPeriod, f.pumpReprotect)
}

// Quiesce stops starting new epochs on every active pair and disarms the
// control-plane tickers; in-flight transfers, acks, and the backlog keep
// draining so drain-to-zero can be asserted afterwards.
func (f *Fleet) Quiesce() {
	f.quiesced = true
	if f.detector != nil {
		f.detector.Stop()
	}
	if f.pump != nil {
		f.pump.Stop()
	}
	for _, pr := range f.Pairs {
		pr.Repl.Quiesce()
	}
}

// NewClient attaches a client TCP stack to the fleet's shared LAN.
func (f *Fleet) NewClient(ip simnet.Addr) *simnet.Stack {
	port := f.Switch.Attach()
	st := simnet.NewStack(f.Clock, ip, port.Send)
	port.SetReceiver(st.Receive)
	f.Switch.Learn(ip, port)
	return st
}

func (f *Fleet) eventf(format string, args ...any) {
	if f.Eventf != nil {
		f.Eventf(format, args...)
	}
}

// QueuedReprotects returns how many pairs await re-protection.
func (f *Fleet) QueuedReprotects() int { return len(f.reprotectQ) }

// ActiveResyncs returns how many initial synchronizations are running.
func (f *Fleet) ActiveResyncs() int { return len(f.resyncActive) }

// DrainStats sums retained transfer-scheduler state across every host
// NIC; after Quiesce and a settle window everything must be zero.
func (f *Fleet) DrainStats() (flows int, queued int64) {
	for _, h := range f.Hosts {
		flows += h.Xfer.Flows()
		queued += h.Xfer.QueuedBytes()
	}
	return flows, queued
}

// WireBytes sums bytes sent across every host NIC.
func (f *Fleet) WireBytes() int64 {
	var n int64
	for _, h := range f.Hosts {
		n += h.NIC.BytesSent()
	}
	return n
}
