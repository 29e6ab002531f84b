// Package ftrace models the kernel's ftrace function-hook facility as
// used by NiLiCon (§V-B of the paper): a kernel module attaches hook
// functions to target kernel functions that may modify
// infrequently-changed container state (mounts, namespaces, cgroups,
// device files, memory-mapped files). When such a function runs, the hook
// fires and the checkpointing agent is signaled to invalidate its cache.
//
// In the simulation, kernel mutation paths call Registry.Fire with the
// target function's name; hooks registered for that name (or for all
// names) receive the event synchronously. Firing with no hooks attached
// has negligible cost, mirroring ftrace's near-zero overhead when
// disarmed.
package ftrace

// Event describes one invocation of a hooked kernel function.
type Event struct {
	// Fn is the kernel function name, e.g. "do_mount", "cgroup_attach_task".
	Fn string
	// ContainerID identifies the container of the process on whose
	// behalf the function ran (empty if the process is not
	// containerized). Hook functions use it to decide whether the event
	// concerns the checkpointed container.
	ContainerID string
}

// Hook is a callback attached to one or more kernel functions.
type Hook func(Event)

// HookID identifies a registered hook for removal.
type HookID int

// Registry dispatches events from kernel mutation paths to hooks. The
// zero value is ready to use.
type Registry struct {
	nextID HookID
	byFn   map[string]map[HookID]Hook
	global map[HookID]Hook
	fnOf   map[HookID]string
}

// Register attaches h to the kernel function fn. An empty fn attaches to
// every function (a global hook).
func (r *Registry) Register(fn string, h Hook) HookID {
	if h == nil {
		panic("ftrace: Register with nil hook")
	}
	r.init()
	id := r.nextID
	r.nextID++
	if fn == "" {
		r.global[id] = h
	} else {
		m := r.byFn[fn]
		if m == nil {
			m = make(map[HookID]Hook)
			r.byFn[fn] = m
		}
		m[id] = h
	}
	r.fnOf[id] = fn
	return id
}

// Unregister removes a hook; unknown IDs are ignored.
func (r *Registry) Unregister(id HookID) {
	if r.byFn == nil {
		return
	}
	fn, ok := r.fnOf[id]
	if !ok {
		return
	}
	delete(r.fnOf, id)
	if fn == "" {
		delete(r.global, id)
		return
	}
	delete(r.byFn[fn], id)
}

// Fire dispatches ev to hooks registered for ev.Fn and to global hooks.
// As with real ftrace, the hook runs synchronously in the context of the
// hooked function.
func (r *Registry) Fire(ev Event) {
	if r.byFn == nil {
		return
	}
	for _, h := range r.byFn[ev.Fn] {
		h(ev)
	}
	for _, h := range r.global {
		h(ev)
	}
}

func (r *Registry) init() {
	if r.byFn == nil {
		r.byFn = make(map[string]map[HookID]Hook)
		r.global = make(map[HookID]Hook)
		r.fnOf = make(map[HookID]string)
	}
}
