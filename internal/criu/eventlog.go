package criu

// Nondeterminism event log (HyCoR mode, DESIGN.md §12). Between
// checkpoints the primary records every source of nondeterminism the
// simulation owns — network input arrival order and payloads, and a
// digest of scheduling decisions — into an append-only log cut into
// small segments. Segments stream to the backup over the replication
// link next to (and scheduled fairly against) page traffic; output
// release gates on segment commit, which is microseconds of data,
// instead of epoch page-transfer commit. On failover the backup restores
// the last committed checkpoint and re-executes the committed log
// suffix; the per-segment output digest is the divergence oracle.

import (
	"hash/crc32"

	"nilicon/internal/simnet"
)

// LogEvent is one recorded nondeterministic event: a network packet
// delivered to the container's stack (payload and arrival order).
type LogEvent struct {
	Packet simnet.Packet
}

// wireBytes models the event's size on the replication link.
func (e *LogEvent) wireBytes() int64 { return 8 + int64(e.Packet.Len()) }

// LogSegment is one sealed slice of the nondeterminism log. Segments are
// sealed on a short coalescing delay after the first event and at every
// epoch boundary, so Seq is globally monotone. A segment is tiny next to
// a checkpoint — the whole point: its commit latency is link latency
// plus microseconds of serialization.
type LogSegment struct {
	// Seq is the global segment sequence number (1-based).
	Seq uint64
	// Events holds the recorded events in occurrence order.
	Events []LogEvent
	// EgressDigest is a CRC-32C digest of the application-level bytes
	// the container sent while this segment was open, and EgressBytes
	// their count. Handlers run synchronously on input delivery, so
	// replaying this segment's events must reproduce this digest
	// exactly — the replay-divergence oracle.
	EgressDigest uint64
	EgressBytes  int64
	// SchedSteps counts the scheduling quanta executed while the
	// segment was open: replay runs at most this many.
	SchedSteps uint64
}

// WireBytes models the segment's transfer size on the replication link.
func (s *LogSegment) WireBytes() int64 {
	n := int64(64) // segment header
	for i := range s.Events {
		n += s.Events[i].wireBytes()
	}
	return n
}

// The digest primitive for the egress stream is a chained
// CRC-32C (Castagnoli, hardware-accelerated on amd64 and arm64).
// Chaining makes it split-invariant: folding a and then b gives the
// digest of a‖b, however a send was cut into writes.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// DigestInit returns the digest seed value.
func DigestInit() uint64 { return 0 }

// DigestBytes folds data into a digest.
func DigestBytes(h uint64, data []byte) uint64 {
	return uint64(crc32.Update(uint32(h), castagnoli, data))
}
