package simkernel

// NamespaceKind enumerates the Linux namespace types containers use.
type NamespaceKind int

// Namespace kinds.
const (
	NSPID NamespaceKind = iota
	NSNet
	NSMount
	NSUTS
	NSIPC
	NSUser
)

// Namespace is one kernel namespace instance.
type Namespace struct {
	Kind NamespaceKind
	ID   int
	// Extra holds kind-specific configuration (hostname for UTS,
	// interface config for net, ...).
	Extra map[string]string
}

// NamespaceSet is the full set a container owns.
type NamespaceSet struct {
	PID, Net, Mount, UTS, IPC, User *Namespace
}

// NewNamespaceSet creates fresh namespaces of every kind, firing the
// unshare hook (namespace creation/modification invalidates the cache).
func (k *Kernel) NewNamespaceSet(containerID string) *NamespaceSet {
	mk := func(kind NamespaceKind) *Namespace {
		return &Namespace{Kind: kind, ID: k.AllocNamespaceID(), Extra: make(map[string]string)}
	}
	ns := &NamespaceSet{
		PID: mk(NSPID), Net: mk(NSNet), Mount: mk(NSMount),
		UTS: mk(NSUTS), IPC: mk(NSIPC), User: mk(NSUser),
	}
	k.Trace.Fire(ftraceEvent("sys_unshare", containerID))
	return ns
}

// All returns the namespaces in a fixed order.
func (ns *NamespaceSet) All() []*Namespace {
	return []*Namespace{ns.PID, ns.Net, ns.Mount, ns.UTS, ns.IPC, ns.User}
}

// SetExtra records kind-specific configuration, firing the setns-family
// hook so the cached namespace state is invalidated.
func (k *Kernel) SetNamespaceExtra(ns *Namespace, containerID, key, value string) {
	ns.Extra[key] = value
	k.Trace.Fire(ftraceEvent("sys_setns", containerID))
}

// Mount is one mount-table entry.
type Mount struct {
	Source string
	Target string
	FSType string
}

// MountTable is a mount namespace's table.
type MountTable struct {
	k      *Kernel
	mounts []Mount
}

// NewMountTable returns an empty mount table.
func (k *Kernel) NewMountTable() *MountTable { return &MountTable{k: k} }

// Mount adds an entry, firing the do_mount hook.
func (mt *MountTable) Mount(m Mount, containerID string) {
	mt.mounts = append(mt.mounts, m)
	mt.k.Trace.Fire(ftraceEvent("do_mount", containerID))
}

// Unmount removes the entry with the given target; missing targets are a
// no-op. Fires the umount hook.
func (mt *MountTable) Unmount(target, containerID string) {
	for i, m := range mt.mounts {
		if m.Target == target {
			mt.mounts = append(mt.mounts[:i], mt.mounts[i+1:]...)
			mt.k.Trace.Fire(ftraceEvent("sys_umount", containerID))
			return
		}
	}
}

// Mounts returns a copy of the table.
func (mt *MountTable) Mounts() []Mount {
	out := make([]Mount, len(mt.mounts))
	copy(out, mt.mounts)
	return out
}

// DeviceFile is a device node visible inside the container.
type DeviceFile struct {
	Path         string
	Major, Minor int
}

// NamespaceSnapshot is the checkpointed namespace information.
type NamespaceSnapshot struct {
	Kind  NamespaceKind
	ID    int
	Extra map[string]string
}

// CollectNamespaces gathers namespace information through the slow
// kernel interface; the paper measures this at up to 100 ms (§I).
func (k *Kernel) CollectNamespaces(ns *NamespaceSet) []NamespaceSnapshot {
	k.Charge(k.Costs.NamespaceCollect)
	var out []NamespaceSnapshot
	for _, n := range ns.All() {
		extra := make(map[string]string, len(n.Extra))
		for kk, v := range n.Extra {
			extra[kk] = v
		}
		out = append(out, NamespaceSnapshot{Kind: n.Kind, ID: n.ID, Extra: extra})
	}
	return out
}

// CollectMounts gathers the mount table, charging the walk cost.
func (k *Kernel) CollectMounts(mt *MountTable) []Mount {
	k.Charge(k.Costs.MountCollect)
	return mt.Mounts()
}

// CollectDevices gathers device-file state, charging the collection cost.
func (k *Kernel) CollectDevices(devs []DeviceFile) []DeviceFile {
	k.Charge(k.Costs.DeviceCollect)
	out := make([]DeviceFile, len(devs))
	copy(out, devs)
	return out
}
