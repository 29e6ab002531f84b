package criu

import (
	"nilicon/internal/ftrace"
	"nilicon/internal/simkernel"
)

// trackedFunctions are the kernel mutation paths whose execution may
// modify infrequently-changed container state. The paper's kernel module
// attaches ftrace hooks to these (§V-B); the prototype instruments the
// most common paths, which sufficed for all benchmarks.
var trackedFunctions = []string{
	"do_mount",
	"sys_umount",
	"sys_setns",
	"sys_unshare",
	"cgroup_attach_task",
	"cgroup_file_write",
	"chrdev_open",
	"mmap_region",
}

// StateTracker is the ftrace-based state-change tracker: it watches the
// kernel functions above and marks the container's cached
// infrequently-modified state invalid when one of them affects the
// tracked container. The checkpoint engine consults Dirty() to decide
// whether the cached state can be reused.
type StateTracker struct {
	k           *simkernel.Kernel
	containerID string
	dirty       bool
	ids         []ftrace.HookID
}

// NewStateTracker installs hooks on the tracked kernel functions of the
// given host kernel, filtering events to the given container. The
// tracker starts dirty so the first checkpoint collects fresh state.
func NewStateTracker(k *simkernel.Kernel, containerID string) *StateTracker {
	t := &StateTracker{k: k, containerID: containerID, dirty: true}
	hook := func(ev ftrace.Event) {
		// The hook function checks the arguments and calling thread to
		// decide whether the event concerns a thread in the container.
		if ev.ContainerID == t.containerID {
			t.dirty = true
		}
	}
	for _, fn := range trackedFunctions {
		t.ids = append(t.ids, k.Trace.Register(fn, hook))
	}
	return t
}

// Dirty reports whether infrequently-modified state may have changed
// since Reset.
func (t *StateTracker) Dirty() bool { return t.dirty }

// Reset marks the cache valid (called after fresh state is collected).
func (t *StateTracker) Reset() { t.dirty = false }

// Close removes the hooks.
func (t *StateTracker) Close() {
	for _, id := range t.ids {
		t.k.Trace.Unregister(id)
	}
	t.ids = nil
}
