package core

import (
	"fmt"

	"nilicon/internal/container"
	"nilicon/internal/simdisk"
)

// Reprotect resumes fault-tolerant operation after a failover: the
// restored container (now running on the former backup host) becomes the
// new primary, replicating to the repaired original host. The paper
// leaves re-protection as operational practice; this implements it as
// ReprotectOnto over the old pair's hosts and links with the roles
// swapped: the repaired host's disk is brought up from a full resync of
// the new primary's disk (DRBD initial sync), a fresh DRBD pair is
// stacked under the container's file system, and a new Replicator
// starts from an initial full checkpoint.
//
// The caller is responsible for the repaired host being actually usable
// (links up, any stale processes gone — HardKill'd hosts keep their dead
// container object, which is ignored).
func Reprotect(old *Cluster, ctr *container.Container, cfg Config) (*Cluster, *Replicator, error) {
	swapped := &Cluster{
		Clock:    old.Clock,
		Switch:   old.Switch,
		Primary:  old.Backup,
		Backup:   old.Primary,
		ReplLink: old.ReplLink,
		AckLink:  old.AckLink,
		Xfer:     old.Xfer,
	}
	if err := swapped.reprotectable(ctr); err != nil {
		return nil, nil, err
	}
	// The replication link has exactly one scheduler multiplexing it;
	// reuse the old cluster's rather than stacking a second one on the
	// same link (two independent pumps double-book the link's serialization
	// window and break chunk-level fairness). Its transfers belong to
	// the dead primary and are cancelled, the ones on the wire included.
	old.Xfer.Reset()
	repl, err := ReprotectOnto(swapped, ctr, swapped.Primary.Disk, cfg)
	if err != nil {
		return nil, nil, err
	}
	// The repaired host's disk is the new backup volume.
	swapped.Backup.Disk = swapped.DRBDBackup.Local
	return swapped, repl, nil
}

// ReprotectOnto re-protects a container onto a backup host that may
// already run other active pairs (the fleet case, DESIGN.md §9). It
// takes a pre-built per-pair Cluster view — Primary is the container's
// current host, Backup the chosen target, ReplLink/AckLink the two
// hosts' shared replication NICs, and Xfer the primary NIC's shared
// TransferScheduler — and therefore does not Reset the scheduler or
// touch host disks: co-located pairs own flows on the same scheduler
// and volumes on the same hosts. vol is the container's current
// authoritative volume (the promoted backup volume after a failover, the
// detached primary volume after a fence).
//
// The DRBD initial synchronization clones vol onto the target and
// charges the full transfer to the shared NIC on the pair's own resync
// flow, so the scheduler's round-robin keeps co-located pairs' epoch
// streams flowing at chunk granularity throughout.
func ReprotectOnto(view *Cluster, ctr *container.Container, vol *simdisk.Disk, cfg Config) (*Replicator, error) {
	if err := view.reprotectable(ctr); err != nil {
		return nil, err
	}
	backupVol := vol.Clone()
	view.DRBDPrimary, view.DRBDBackup = simdisk.NewDRBDPair(vol, backupVol, view.ReplLink)
	view.Xfer.SubmitBytes(ctr.ID+"/resync",
		int64(vol.Blocks())*simdisk.BlockSize, nil, nil)
	ctr.FS.SetStore(view.DRBDPrimary)

	return NewReplicator(view, ctr, cfg), nil
}

// reprotectable checks that the view can re-protect ctr: the container
// runs on the view's primary host, both replication links are up, and
// the primary NIC's transfer scheduler is wired in.
func (view *Cluster) reprotectable(ctr *container.Container) error {
	if ctr.Host != view.Primary {
		return fmt.Errorf("core: reprotect expects the container on the new primary host %q, got %q",
			view.Primary.Name, ctr.Host.Name)
	}
	if view.ReplLink.Down() || view.AckLink.Down() {
		return fmt.Errorf("core: reprotect requires the replication links to be up")
	}
	if view.Xfer == nil {
		return fmt.Errorf("core: reprotect requires the primary NIC's transfer scheduler")
	}
	return nil
}
