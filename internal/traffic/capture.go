package traffic

import (
	"fmt"

	"nilicon/internal/simtime"
)

// Recorder captures an executed workload run into a trace: any client
// engine (the chaos kv writer, the workloads client set) reports each
// request it issues at its virtual send instant, and the recorder emits
// a replayable Trace. Because the source run executes in virtual time,
// the capture is deterministic — recording the same run twice yields
// byte-identical traces.
type Recorder struct {
	start simtime.Time
	hdr   Header
	reqs  []Request
	keys  map[uint64]bool
}

// NewRecorder starts a capture. start anchors the trace's t=0; clients
// is the number of client connections the run drives.
func NewRecorder(name string, clients int, start simtime.Time) *Recorder {
	return &Recorder{
		start: start,
		hdr:   Header{Version: TraceVersion, Name: name, Clients: clients},
		keys:  make(map[uint64]bool),
	}
}

// Record captures one issued request at its send instant. Times before
// the recorder's start clamp to 0 so a warmup-phase request cannot
// produce a negative arrival.
func (r *Recorder) Record(now simtime.Time, client int, op string, key uint64, size int) {
	at := int64(now) - int64(r.start)
	if at < 0 {
		at = 0
	}
	if n := len(r.reqs); n > 0 && at < r.reqs[n-1].At {
		// Virtual time is monotone, so an out-of-order capture means the
		// caller timestamped with the wrong clock; clamp rather than emit
		// a trace Parse would reject.
		at = r.reqs[n-1].At
	}
	r.keys[key] = true
	r.reqs = append(r.reqs, Request{
		ID:     uint64(len(r.reqs) + 1),
		At:     at,
		Client: client,
		Op:     op,
		Key:    key,
		Size:   size,
	})
}

// Trace finalizes the capture. A capture with no requests is an error —
// the run recorded nothing, and an empty trace is unparseable by
// design.
func (r *Recorder) Trace() (*Trace, error) {
	if len(r.reqs) == 0 {
		return nil, fmt.Errorf("traffic: capture recorded no requests")
	}
	hdr := r.hdr
	hdr.Keys = len(r.keys)
	return &Trace{Header: hdr, Reqs: r.reqs}, nil
}
