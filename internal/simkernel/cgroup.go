package simkernel

import "nilicon/internal/simtime"

// Cgroup is a control group with the two controllers NiLiCon uses:
// cpuacct (the failure detector reads cpuacct.usage, §IV) and freezer
// (checkpointing pauses the container with virtual signals, §II-B).
type Cgroup struct {
	k    *Kernel
	Path string
	// Config models the control-group configuration knobs (limits,
	// devices, ...) that are part of the infrequently-modified state.
	Config map[string]string

	cpuUsage simtime.Duration
	frozen   bool
	members  []*Process
}

// NewCgroup creates a control group at the given path.
func (k *Kernel) NewCgroup(path string) *Cgroup {
	return &Cgroup{k: k, Path: path, Config: make(map[string]string)}
}

// AddProcess attaches a process (and all its threads) to the group,
// firing the cgroup_attach_task hook the state-change tracker watches.
func (cg *Cgroup) AddProcess(p *Process) {
	cg.members = append(cg.members, p)
	cg.k.Trace.Fire(ftraceEvent("cgroup_attach_task", p.PID, p.ContainerID, cg.Path))
}

// SetConfig updates a configuration knob, firing the corresponding hook
// (configuration changes invalidate the cached cgroup state).
func (cg *Cgroup) SetConfig(key, value string) {
	cg.Config[key] = value
	pid := 0
	ctr := ""
	if len(cg.members) > 0 {
		pid = cg.members[0].PID
		ctr = cg.members[0].ContainerID
	}
	cg.k.Trace.Fire(ftraceEvent("cgroup_file_write", pid, ctr, cg.Path+"/"+key))
}

// ChargeCPU accounts CPU time consumed by the group's tasks
// (cpuacct.usage).
func (cg *Cgroup) ChargeCPU(d simtime.Duration) {
	if d < 0 {
		panic("simkernel: negative CPU charge")
	}
	cg.cpuUsage += d
}

// CPUUsage returns the value of cpuacct.usage. Reading it is one cheap
// file read.
func (cg *Cgroup) CPUUsage() simtime.Duration {
	cg.k.ChargeSyscall(0)
	return cg.cpuUsage
}

// Frozen reports the freezer state.
func (cg *Cgroup) Frozen() bool { return cg.frozen }

// Freeze sends virtual signals to every thread in the group and returns
// the settle time: how long until the last thread is actually paused.
// Threads in user code pause quickly; threads inside system calls must be
// forced out first (§II-B). The caller (CRIU) decides how to wait —
// stock CRIU sleeps 100 ms, NiLiCon polls (§V-A).
func (cg *Cgroup) Freeze() simtime.Duration {
	if cg.frozen {
		return 0
	}
	cg.frozen = true
	var settle simtime.Duration
	for _, p := range cg.members {
		for _, t := range p.Threads {
			cg.k.Charge(cg.k.Costs.FreezeSignal)
			s := cg.k.Costs.FreezeSettleUser
			if t.InSyscall {
				s += cg.k.Costs.FreezeSettleSyscall
			}
			if s > settle {
				settle = s
			}
			t.prevState = t.State
			t.State = ThreadFrozen
		}
	}
	return settle
}

// Thaw resumes every thread, restoring its pre-freeze state.
func (cg *Cgroup) Thaw() {
	if !cg.frozen {
		return
	}
	cg.frozen = false
	for _, p := range cg.members {
		for _, t := range p.Threads {
			if t.State == ThreadFrozen {
				t.State = t.prevState
			}
		}
	}
}

// CgroupSnapshot is the checkpointed control-group configuration.
type CgroupSnapshot struct {
	Path   string
	Config map[string]string
	PIDs   []int
}

// CollectCgroup gathers the group's configuration, charging the full
// collection cost (part of the ≈160 ms infrequently-modified state the
// paper measures for streamcluster, §V-B).
func (k *Kernel) CollectCgroup(cg *Cgroup) CgroupSnapshot {
	k.Charge(k.Costs.CgroupCollect)
	cfg := make(map[string]string, len(cg.Config))
	for kk, v := range cg.Config {
		cfg[kk] = v
	}
	pids := make([]int, 0, len(cg.members))
	for _, p := range cg.members {
		pids = append(pids, p.PID)
	}
	return CgroupSnapshot{Path: cg.Path, Config: cfg, PIDs: pids}
}
