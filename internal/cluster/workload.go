package cluster

import "nilicon/internal/container"

// Workload is a fleet pair's application: Install builds it on a fresh
// container, Reattach rebuilds it on a restored one from the
// checkpointed application state (core.Config.Reattach).
type Workload interface {
	Install(ctr *container.Container)
	Reattach(ctr *container.Container, state any)
}

// WorkloadFactory builds one pair's workload; the pair ID lets
// factories derive per-pair seeds or behavior.
type WorkloadFactory func(pairID string) Workload
