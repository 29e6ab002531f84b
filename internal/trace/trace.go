// Package trace records per-epoch time series of a replicated run: stop
// time, its components, transferred state size and dirty pages. The
// paper's Table IV observation — that NiLiCon's impact "can vary
// significantly over time (e.g., due to stop time for streamcluster,
// state size for DJCMS)" — is directly visible in these series;
// `niliconctl timeline` emits them as CSV for plotting. An EpochRecord
// is the one per-epoch measurement: the paper tables' checkpoint
// columns and the benchmark's per-layer metrics are computed from
// these records.
package trace

import (
	"fmt"
	"io"

	"nilicon/internal/simtime"
)

// EpochRecord is one checkpoint's measurements.
type EpochRecord struct {
	// Pair identifies the protected pair (the container ID) the record
	// belongs to. Concurrent replicators in a fleet share one Timeline;
	// the tag keeps their streams from colliding.
	Pair       string
	Epoch      uint64
	At         simtime.Time
	Stop       simtime.Duration
	FreezeWait simtime.Duration
	MemCopy    simtime.Duration
	SockColl   simtime.Duration
	StateBytes int64
	DirtyPages int

	// Pipeline stage timings: how long the state transfer occupied the
	// replication link, how long the primary waited for the backup's
	// acknowledgment after delivery, and the end-to-end output-commit
	// latency (epoch boundary → buffered output released).
	Transfer simtime.Duration
	AckWait  simtime.Duration
	Commit   simtime.Duration

	// Inflight is the number of epochs still awaiting output release
	// when this epoch's output was released. A growing value shows a
	// stalled pipeline (link outage, slow backup) directly in the
	// timeline.
	Inflight int

	// WireBytes is the epoch's actual transfer size: equal to StateBytes
	// unless the delta encoder rewrote the pages into compressed frames.
	WireBytes int64
	// Frame mix of the epoch's encoded pages (all full frames when the
	// delta encoder is disabled).
	FullFrames  int
	DeltaFrames int
	ZeroFrames  int
	DedupFrames int

	// Lease is the primary's lease state when the epoch's output was
	// released ("off" when lease arbitration is disabled). An epoch
	// released out of a fence records the state at flush time.
	Lease string

	// Replicas is the chain width — primary plus live (unfenced)
	// backup slots — when the epoch's output was released; Quorum is
	// the effective commit quorum gating that release. A classic pair
	// records 2/1. A fence mid-run shows up as a step in the series.
	Replicas int
	Quorum   int
}

// Timeline accumulates epoch records.
type Timeline struct {
	records []EpochRecord
}

// Record appends one epoch.
func (tl *Timeline) Record(r EpochRecord) { tl.records = append(tl.records, r) }

// Len returns the number of recorded epochs.
func (tl *Timeline) Len() int { return len(tl.records) }

// Records returns the recorded series (shared slice; do not mutate).
func (tl *Timeline) Records() []EpochRecord { return tl.records }

// WriteCSV emits the series with a header row. Durations are in
// microseconds, the timestamp in milliseconds.
func (tl *Timeline) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "epoch,at_ms,stop_us,freeze_us,memcopy_us,sockcoll_us,state_bytes,dirty_pages,transfer_us,ack_us,commit_us,inflight,wire_bytes,full_frames,delta_frames,zero_frames,dedup_frames,lease,replicas,quorum,pair"); err != nil {
		return err
	}
	for _, r := range tl.Records() {
		lease := r.Lease
		if lease == "" {
			lease = "off"
		}
		replicas, quorum := r.Replicas, r.Quorum
		if replicas == 0 {
			replicas = 2
		}
		if quorum == 0 {
			quorum = 1
		}
		_, err := fmt.Fprintf(w, "%d,%.3f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%s,%d,%d,%s\n",
			r.Epoch,
			float64(r.At)/1e6,
			r.Stop.Microseconds(),
			r.FreezeWait.Microseconds(),
			r.MemCopy.Microseconds(),
			r.SockColl.Microseconds(),
			r.StateBytes,
			r.DirtyPages,
			r.Transfer.Microseconds(),
			r.AckWait.Microseconds(),
			r.Commit.Microseconds(),
			r.Inflight,
			r.WireBytes,
			r.FullFrames,
			r.DeltaFrames,
			r.ZeroFrames,
			r.DedupFrames,
			lease,
			replicas,
			quorum,
			r.Pair)
		if err != nil {
			return err
		}
	}
	return nil
}
