package criu

import (
	"fmt"

	"nilicon/internal/container"
	"nilicon/internal/simfs"
	"nilicon/internal/simkernel"
)

// Restore recreates a container on host h from a (merged, full) image.
// Costs are charged to the host kernel's active meter, so the caller can
// measure the Restore component of recovery latency (Table II).
//
// The restored container's sockets are left in repair mode and its veth
// is left disconnected from the bridge; the caller (the backup agent)
// reconnects, broadcasts the gratuitous ARP, and then takes the sockets
// out of repair mode — in that order, so no RST can be generated for a
// connection whose socket is not yet restored (§III).
//
// Workload step functions cannot be restored by CRIU; the caller
// re-attaches the application to the returned container using
// img.AppState.
func Restore(h *container.Host, img *Image, store simfs.BlockStore) (*container.Container, error) {
	if !img.Full {
		return nil, fmt.Errorf("criu: restore requires a full (merged) image, got incremental epoch %d", img.Epoch)
	}
	k := h.Kernel
	c := k.Costs
	k.Charge(c.RestoreBase)

	ctr := container.Create(h, container.Spec{
		ID: img.ContainerID, IP: img.IP, Cores: img.Cores, Store: store,
	})
	// Input must be blocked until the network state is fully restored.
	ctr.Disconnect()
	// The pages are installed shared: the image's buffers become frames.
	ctr.SharesFrames = true

	// Mount table and devices from the image replace the defaults.
	for _, m := range ctr.Mounts.Mounts() {
		ctr.Mounts.Unmount(m.Target, 0, ctr.ID)
	}
	for _, m := range img.Infrequent.Mounts {
		ctr.Mounts.Mount(m, 0, ctr.ID)
	}
	ctr.Devices = append([]simkernel.DeviceFile(nil), img.Infrequent.Devices...)
	for key, val := range img.Infrequent.Cgroup.Config {
		ctr.Cgroup.SetConfig(key, val)
	}

	// Processes: address spaces, pages, threads, descriptors, timers.
	for i := range img.Procs {
		pi := &img.Procs[i]
		p := ctr.AddProcess(pi.Name, 0)
		for _, v := range pi.VMAs {
			p.Mem.InstallVMA(simkernel.VMA{
				Start: v.Start, End: v.End, Prot: v.Prot, Path: v.Path, FileOff: v.FileOff,
			})
		}
		for _, pg := range pi.Pages {
			p.Mem.InstallPage(pg.PN, pg.Data)
			k.Charge(c.RestorePerPage)
		}
		p.Mem.SetSoftDirtyTracking(true)
		for ti, ts := range pi.Threads {
			th := p.MainThread()
			if ti > 0 {
				th = p.NewThread()
			}
			th.Regs = ts.Regs
			th.SigMask = ts.SigMask
			th.Policy = ts.Policy
		}
		for _, fd := range pi.FDs {
			nfd := p.OpenFD(fd.Kind, fd.Path)
			nfd.Offset = fd.Offset
			nfd.SockID = fd.SockID
			nfd.Flags = fd.Flags
			k.Charge(c.RestorePerFD)
		}
		for _, tm := range pi.Timers {
			p.AddTimer(tm.Interval, tm.Remaining)
		}
	}

	// File-system cache before sockets: restore order follows §IV
	// (commit disk changes happens outside, in the backup agent).
	ctr.FS.ApplyCache(img.FSCache)

	// Network: sockets restored in repair mode.
	for _, sn := range img.Sockets {
		ctr.Stack.RestoreSocket(sn)
	}
	for _, port := range img.Listeners {
		ctr.Stack.Listen(port, nil)
	}
	return ctr, nil
}

// FinishNetworkRestore reconnects the container to the bridge,
// broadcasts the gratuitous ARP advertising the container's address at
// the new host, and — once the ARP has propagated — takes every socket
// out of repair mode so retransmission timers arm. repairRTOPatch
// selects NiLiCon's 200 ms repair-mode retransmission timeout (§V-E).
// done (optional) runs after the sockets are live.
func FinishNetworkRestore(ctr *container.Container, repairRTOPatch bool, done func()) {
	ctr.Reconnect()
	ctr.Host.Switch.GratuitousARP(ctr.IP, ctr.Port, func() {
		for _, s := range ctr.Stack.Sockets() {
			if s.InRepair() {
				s.LeaveRepair(repairRTOPatch)
			}
		}
		if done != nil {
			done()
		}
	})
}
