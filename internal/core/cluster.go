package core

import (
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
}

// The link model is the paper's testbed (§VI), fixed for every
// topology this repository builds: the pair cluster, chain views, and
// the fleet's switch and per-host NICs.
const (
	// LANLatency is the client↔host one-way latency (1 GbE LAN).
	LANLatency = 150 * simtime.Microsecond
	// ARPDelay is the gratuitous-ARP propagation delay (Table II: 28 ms).
	ARPDelay = 28 * simtime.Millisecond
	// ReplLatency is the replication link's one-way latency (10 GbE).
	ReplLatency = 50 * simtime.Microsecond
	// ReplBW is the replication link's bandwidth in bytes/second
	// (10 Gb/s).
	ReplBW = 1_250_000_000
)

// ClusterParams has no fields: the topology's link model is the
// constants above. The type stays so existing NewShardedCluster
// callers keep compiling.
type ClusterParams struct{}

// NewShardedCluster builds the two-host topology plus the replication
// links and the DRBD pair over the hosts' disks, every part of it on
// the one clock. The name is the one the benchmark module (bench/)
// calls.
func NewShardedCluster(clock *simtime.Clock, _ ClusterParams) *Cluster {
	sw := simnet.NewSwitch(clock, LANLatency, ARPDelay)
	cl := &Cluster{
		Clock:    clock,
		Switch:   sw,
		Primary:  container.NewHost("primary", clock, sw),
		Backup:   container.NewHost("backup", clock, sw),
		ReplLink: simnet.NewLink(clock, ReplLatency, ReplBW),
		AckLink:  simnet.NewLink(clock, ReplLatency, ReplBW),
	}
	cl.Xfer = NewTransferScheduler(clock, cl.ReplLink)
	cl.DRBDPrimary, cl.DRBDBackup = simdisk.NewDRBDPair(cl.Primary.Disk, cl.Backup.Disk, cl.ReplLink)
	return cl
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
	port := cl.Switch.Attach()
	st := simnet.NewStack(cl.Clock, ip, port.Send)
	port.SetReceiver(st.Receive)
	cl.Switch.Learn(ip, port)
	return st
}
