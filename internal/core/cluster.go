package core

import (
	"fmt"

	"nilicon/internal/container"
	"nilicon/internal/simdisk"
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
)

// RestoredContainer is the container handle passed to recovery
// callbacks.
type RestoredContainer = *container.Container

// Cluster is the paper's experimental topology (§VI): a primary and a
// backup host joined by a dedicated 10 GbE replication link, both on a
// 1 GbE LAN that also carries client traffic through the virtual bridge.
type Cluster struct {
	Clock  *simtime.Clock
	Switch *simnet.Switch

	Primary *container.Host
	Backup  *container.Host

	// ReplLink carries checkpoint state and DRBD writes primary→backup.
	ReplLink *simnet.Link
	// AckLink carries acknowledgments and heartbeats backup↔primary.
	AckLink *simnet.Link

	// Xfer multiplexes bulk state transfers from all replicators over
	// ReplLink (heartbeats and DRBD barriers bypass it as individual
	// packets).
	Xfer *TransferScheduler

	DRBDPrimary *simdisk.DRBD
	DRBDBackup  *simdisk.DRBD

	clients int
}

// ClusterParams tunes the topology; zero values take the defaults
// matching the paper's testbed.
type ClusterParams struct {
	LANLatency  simtime.Duration // client↔host one-way (1 GbE LAN)
	ARPDelay    simtime.Duration // gratuitous-ARP propagation (Table II: 28 ms)
	ReplLatency simtime.Duration // 10 GbE link one-way
	ReplBW      int64            // bytes/second (10 Gb/s)
}

func (p *ClusterParams) defaults() {
	if p.LANLatency == 0 {
		p.LANLatency = 150 * simtime.Microsecond
	}
	if p.ARPDelay == 0 {
		p.ARPDelay = 28 * simtime.Millisecond
	}
	if p.ReplLatency == 0 {
		p.ReplLatency = 50 * simtime.Microsecond
	}
	if p.ReplBW == 0 {
		p.ReplBW = 1_250_000_000 // 10 Gb/s
	}
}

// NewShardedCluster builds the two-host topology plus the replication
// links and the DRBD pair over the hosts' disks. The primary and backup
// hosts each get their own shard, the switch and campaign drivers run
// on the root shard, and the replication/ack links deliver on the
// receiving host's shard.
func NewShardedCluster(sc *simtime.ShardedClock, params ClusterParams) *Cluster {
	return newCluster(sc.Root(), sc.NewShard(), sc.NewShard(), params)
}

func newCluster(root, pclk, bclk *simtime.Clock, params ClusterParams) *Cluster {
	params.defaults()
	sw := simnet.NewSwitch(root, params.LANLatency, params.ARPDelay)
	cl := &Cluster{
		Clock:    pclk,
		Switch:   sw,
		Primary:  container.NewHost("primary", pclk, sw),
		Backup:   container.NewHost("backup", bclk, sw),
		ReplLink: simnet.NewLink(pclk, params.ReplLatency, params.ReplBW),
		AckLink:  simnet.NewLink(bclk, params.ReplLatency, params.ReplBW),
	}
	// Checkpoint state flows primary→backup; acks flow back.
	cl.ReplLink.BindRemote(bclk)
	cl.AckLink.BindRemote(pclk)
	cl.Xfer = NewTransferScheduler(pclk, cl.ReplLink)
	cl.DRBDPrimary, cl.DRBDBackup = simdisk.NewDRBDPair(cl.Primary.Disk, cl.Backup.Disk, cl.ReplLink)
	return cl
}

// NewShardedChainViews builds the topology for an f+1 replication chain
// (DESIGN.md §15): one primary host and replicas-1 backup hosts, each
// backup joined to the primary by its own dedicated replication/ack
// link pair and its own DRBD secondary over the primary's volume. The
// primary and every backup host get their own shard, and each view's
// links deliver on the receiving host's shard.
// views[0] is a classic pair cluster; each further view shares the
// primary side (clock, switch, primary host, DRBD primary end) and
// carries its own backup host, links, transfer scheduler and DRBD
// secondary. Pass the slice to NewChainReplicator.
func NewShardedChainViews(sc *simtime.ShardedClock, params ClusterParams, replicas int) []*Cluster {
	if replicas < 2 {
		replicas = 2
	}
	params.defaults()
	pclk := sc.NewShard()
	base := newCluster(sc.Root(), pclk, sc.NewShard(), params)
	views := []*Cluster{base}
	for i := 1; i < replicas-1; i++ {
		bclk := sc.NewShard()
		repl := simnet.NewLink(pclk, params.ReplLatency, params.ReplBW)
		ack := simnet.NewLink(bclk, params.ReplLatency, params.ReplBW)
		repl.BindRemote(bclk)
		ack.BindRemote(pclk)
		v := &Cluster{
			Clock:       pclk,
			Switch:      base.Switch,
			Primary:     base.Primary,
			Backup:      container.NewHost(fmt.Sprintf("backup%d", i+1), bclk, base.Switch),
			ReplLink:    repl,
			AckLink:     ack,
			DRBDPrimary: base.DRBDPrimary,
		}
		v.Xfer = NewTransferScheduler(pclk, repl)
		v.DRBDBackup = base.DRBDPrimary.AttachSecondary(v.Backup.Disk, repl)
		views = append(views, v)
	}
	return views
}

// NewProtectedContainer creates a container on the primary host whose
// root file system sits on the replicated DRBD device.
func (cl *Cluster) NewProtectedContainer(id string, ip simnet.Addr, cores int) *container.Container {
	return container.Create(cl.Primary, container.Spec{
		ID: id, IP: ip, Cores: cores, Store: cl.DRBDPrimary,
	})
}

// NewClient attaches a client TCP stack to the LAN (the client host in
// the paper's testbed).
func (cl *Cluster) NewClient(ip simnet.Addr) *simnet.Stack {
	cl.clients++
	port := cl.Switch.Attach("client-" + string(ip))
	st := simnet.NewStack(cl.Clock, ip, port.Send)
	port.SetReceiver(st.Receive)
	cl.Switch.Learn(ip, port)
	return st
}
