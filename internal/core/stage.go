package core

// Stage identifies one phase of the epoch pipeline (§IV). The monolithic
// epoch loop — block input, freeze, collect, thaw, transfer, await
// acknowledgment, release output — is decomposed into these first-class
// stages so that configurations can overlap them (PipelinedTransfer,
// StagingBuffer) by rewiring edges of the stage graph instead of
// reordering a loop body. The transfer, ack-wait and output-commit
// durations land in each epoch's trace.EpochRecord (Replicator.Timeline,
// `niliconctl timeline`).
type Stage int

// The pipeline stages, in nominal (fully serialized) order.
const (
	// StageBlockInput blocks container ingress for the stop phase
	// (sch_plug 43 µs or firewall rules 7 ms, §V-C).
	StageBlockInput Stage = iota
	// StageFreezeCollect freezes the container and collects the
	// checkpoint image through the kernel interfaces (§II-B, §V).
	StageFreezeCollect
	// StageThaw resumes the container. Its recorded duration is the
	// *extra* wait beyond the end of FreezeCollect: zero when the
	// transfer is overlapped, the transfer wait under stop-and-copy.
	StageThaw
	// StageTransfer streams the checkpoint image to the backup over the
	// shared replication link (via the TransferScheduler).
	StageTransfer
	// StageAwaitAck waits for the backup's acknowledgment, which it
	// sends only once both the image and the epoch's disk barrier have
	// arrived (§IV).
	StageAwaitAck
	// StageReleaseOutput releases the epoch's buffered output. Its
	// recorded duration is the end-to-end output-commit latency: epoch
	// boundary → buffered output released.
	StageReleaseOutput

	// NumStages is the number of pipeline stages.
	NumStages
)

var stageNames = [NumStages]string{
	"BlockInput",
	"FreezeCollect",
	"Thaw",
	"Transfer",
	"AwaitAck",
	"ReleaseOutput",
}

func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return "Stage(?)"
	}
	return stageNames[s]
}

// stageGraph returns the dependency edges of the epoch pipeline for an
// option set: deps[s] lists the stages that must have *completed* before
// stage s may run. The output-commit invariant (DESIGN.md §4) is the
// ReleaseOutput→AwaitAck edge, which no configuration may remove; the
// overlapped-transfer configurations drop the Thaw→Transfer edge, which
// is exactly what lets epoch k+1 execute while epoch k streams to the
// backup.
func (o OptSet) stageGraph() [NumStages][]Stage {
	var deps [NumStages][]Stage
	deps[StageFreezeCollect] = []Stage{StageBlockInput}
	deps[StageThaw] = []Stage{StageFreezeCollect}
	deps[StageTransfer] = []Stage{StageFreezeCollect}
	deps[StageAwaitAck] = []Stage{StageTransfer}
	deps[StageReleaseOutput] = []Stage{StageAwaitAck}
	if !o.StagingBuffer && !o.PipelinedTransfer {
		// Stop-and-copy: the container may not resume until the state
		// has reached the backup (§V-D deficiency (2)).
		deps[StageThaw] = append(deps[StageThaw], StageTransfer)
	}
	return deps
}
