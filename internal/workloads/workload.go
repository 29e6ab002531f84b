// Package workloads implements the paper's benchmarks (§VI) against the
// simulated substrate: Redis and SSDB (NoSQL key-value stores driven by
// YCSB-style batched clients), Node, Lighttpd and DJCMS (web servers
// driven by SIEGE-style concurrent clients), the PARSEC streamcluster
// and swaptions kernels, and the §VII-A validation microbenchmarks.
//
// Server workloads keep their data in real simulated memory pages and
// files, so failover validation checks actual content, not just
// counters: a value read back after recovery was genuinely restored
// from checkpointed page frames.
package workloads

import (
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"nilicon/internal/container"
	"nilicon/internal/core"
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
)

// Profile describes a benchmark's calibrated footprint (DESIGN.md §1):
// process/thread structure, memory, per-request costs, and the client
// configuration that saturates it.
type Profile struct {
	Name        string
	Procs       int
	ThreadsPer  int
	LibsPerProc int
	// MemPages is the resident memory footprint per process.
	MemPages int

	// Server configuration.
	Port     int
	ReqCPU   simtime.Duration // CPU per request
	ReqDirty int              // heap pages dirtied per request
	RespKB   int              // response payload size (KiB; 0 → 1 KiB records)
	// FSBytesPerWrite is written to the data file per write request.
	FSBytesPerWrite int
	// SyncFS forces write-through (SSDB full persistence).
	SyncFS bool
	// DiskWriteLat models the blocking device latency per synchronous
	// write (disk-bound workloads).
	DiskWriteLat simtime.Duration

	// Clients is the number of concurrent clients that saturates the
	// server (§VI).
	Clients int
	// PipelineDepth is how many KV batches the client keeps in flight
	// (the YCSB driver streams batches back-to-back).
	PipelineDepth int

	// WorkerProcs limits request processing to the first N processes
	// (0 → all). DJCMS's nginx and MySQL processes exist for checkpoint
	// footprint but most request CPU is the application server's.
	WorkerProcs int
	// BackgroundCPUFrac is the duty cycle of non-worker processes.
	BackgroundCPUFrac float64

	// Records is the keyspace size for KV workloads.
	Records int
	// ZipfianKeys draws keys from a zipfian distribution over the
	// stripe instead of uniformly (YCSB's default request distribution;
	// §VI drives Redis/SSDB with YCSB-generated requests).
	ZipfianKeys bool
	// EchoMaxBytes caps echo payload sizes (0 → 256 KiB). The Net
	// microbenchmark of §VII-B uses exactly 10 bytes.
	EchoMaxBytes int

	// WorkUnits is the total work of a batch (non-interactive) run.
	WorkUnits int
	// UnitCPU is the CPU per work unit per thread step.
	UnitCPU simtime.Duration
	// UnitDirty is pages dirtied per work unit per thread.
	UnitDirty int

	// KernelDirtyPages is the extra guest-kernel dirty-page count per
	// epoch when the workload runs under MC (Table III's MC DPage minus
	// the user-space pages).
	KernelDirtyPages int

	// --- Calibrated residuals (documented in DESIGN.md §1) -----------------

	// ExtraStop is per-checkpoint stop time for in-kernel state the
	// simulation does not model structurally (epoll sets, pipes,
	// allocator arenas).
	ExtraStop simtime.Duration
	// ExtraStopPerProc is the per-process share of that residual
	// (§VII-C measures per-process state retrieval at 3-6 ms for server
	// processes).
	ExtraStopPerProc simtime.Duration
	// RuntimeTax is per-epoch runtime overhead under any replication
	// beyond per-page tracking costs.
	RuntimeTax simtime.Duration
	// MCExtraTax is additional per-epoch runtime overhead under MC only
	// (virtio/EPT effects).
	MCExtraTax simtime.Duration
}

// TotalExtraStop returns ExtraStop + Procs×ExtraStopPerProc.
func (p Profile) TotalExtraStop() simtime.Duration {
	return p.ExtraStop + simtime.Duration(p.Procs)*p.ExtraStopPerProc
}

// Workload is one installable benchmark.
type Workload interface {
	// Profile returns the calibrated profile.
	Profile() Profile
	// Install sets the workload up inside a fresh container.
	Install(ctr *container.Container)
	// Reattach rebuilds the workload on a restored container from the
	// checkpointed application state. A restore-validation failure (a
	// heap VMA or file the checkpoint should have carried is missing) is
	// returned as an error AND recorded in the workload's own error
	// list, so harness oracles that only inspect app errors still see
	// it; callers on the failover path log rather than crash — a failed
	// reattach leaves a restored container without its workload, which
	// the validation oracles then report.
	Reattach(ctr *container.Container, appState any) error
}

// ServerWorkload additionally serves network clients.
type ServerWorkload interface {
	Workload
	// NewClients starts n closed-loop clients against the cluster's
	// protected container and returns their aggregated driver.
	NewClients(cl *core.Cluster, serverIP string, n int, seed int64) *ClientSet
}

// BatchWorkload runs to completion instead of serving requests.
type BatchWorkload interface {
	Workload
	// Done reports whether all work units completed.
	Done() bool
	// CompletedUnits returns progress.
	CompletedUnits() int
}

// --- Wire protocol ---------------------------------------------------------
//
// All server benchmarks share one frame format: 4-byte big-endian length
// (of op+payload), 1-byte op, payload.

// Ops.
const (
	OpSet  = byte('S') // payload: 8B key + value → resp "OK"
	OpGet  = byte('G') // payload: 8B key → resp value (or empty)
	OpWeb  = byte('W') // payload: 4B path id → resp deterministic page
	OpEcho = byte('E') // payload: arbitrary → resp identical payload
)

// Frame encodes one message.
func Frame(op byte, payload []byte) []byte {
	return AppendFrame(make([]byte, 0, 4+1+len(payload)), op, payload)
}

// AppendFrame appends the encoding of one message to dst and returns the
// extended slice.
func AppendFrame(dst []byte, op byte, payload []byte) []byte {
	return append(appendFrameHeader(dst, op, len(payload)), payload...)
}

// appendFrameHeader appends the header of a frame whose payload is n
// bytes long; the caller appends the payload itself.
func appendFrameHeader(dst []byte, op byte, n int) []byte {
	return append(binary.BigEndian.AppendUint32(dst, uint32(1+n)), op)
}

// frameLen is the encoded length of a frame with an n-byte payload.
func frameLen(n int) int { return 5 + n }

// FrameReader incrementally parses a byte stream into frames.
//
// Ownership (DESIGN.md §8, stream-byte ownership): Feed takes ownership
// of the slice it is given, and Next returns payloads that alias the
// reader's buffer instead of copying. This is sound because no byte the
// reader has returned is ever written again while its send slab is
// held. feedHeld also takes over a hold on the slice's slab, which the
// reader keeps while it views that slab and drops when it moves on; a
// caller that keeps a payload past the next Feed holds the reader's
// slab itself. A slice fed by Feed is untracked: its slab is pinned
// (Socket.ReadAll) or it is no slab at all. An adopted slice may carry
// capacity into memory its sender still writes (a socket's send slab),
// so nothing is ever appended into it; it grows only in place, when the
// next fed slice starts exactly where it ends in the same array, and so
// a frame that straddles two segments of one send costs no copy. A
// buffer the reader allocates itself is written only past the bytes
// already in it: a frame that straddles two feeds of different arrays
// is completed by copying just the unconsumed tail and the new bytes
// into that buffer's unused capacity, or into a new buffer when it is
// full. A returned payload therefore stays valid, unchanged, for as long
// as its holder keeps it. Each payload is capped at its own length, so
// appending to it copies rather than overwriting the stream. The reader
// never compacts: moving the unconsumed tail to the front would
// overwrite bytes it has returned.
type FrameReader struct {
	buf []byte
	off int // start of the unconsumed bytes in buf
	// own marks buf as the reader's own buffer, which Feed may append
	// into; an adopted slice is never appended into.
	own bool
	// slab is the send slab an adopted buf views, held by the reader
	// (nil for its own buffer or an untracked slice).
	slab *simnet.Slab
	// spare is the unused capacity of the reader's own buffer while buf
	// is an adopted slice; size is the capacity it last allocated.
	spare []byte
	size  int
}

// The buffers a reader allocates for itself double in size between
// these bounds (or fit the bytes at hand, if more), so a stream whose
// frames straddle its feeds allocates rarely.
const (
	minFrameBuf = 4 << 10
	maxFrameBuf = 64 << 10
)

// maxFrameLen is the largest op+payload length Next accepts.
const maxFrameLen = 64 << 20

// Feed appends stream bytes. The reader takes ownership of b: the caller
// must not modify it afterwards.
func (fr *FrameReader) Feed(b []byte) { fr.feedHeld(b, nil) }

// feedHeld is Feed of a view of the send slab sl, whose hold the reader
// takes over (Socket.ReadHeld).
func (fr *FrameReader) feedHeld(b []byte, sl *simnet.Slab) {
	switch {
	case len(b) == 0:
		sl.Drop()
	case fr.off == len(fr.buf):
		// Nothing buffered: adopt b instead of copying it. Keep the
		// unused capacity of the reader's own buffer for the next
		// straddling frame.
		if fr.own && cap(fr.buf) > len(fr.buf) {
			fr.spare = fr.buf[len(fr.buf):len(fr.buf)]
		}
		fr.slab.Drop()
		fr.buf, fr.off, fr.own, fr.slab = b, 0, false, sl
	case !fr.own && simnet.Adjoins(fr.buf, b):
		// b is the next part of the array buf views, whose slab the
		// reader holds already: extend in place.
		fr.buf = fr.buf[:len(fr.buf)+len(b)]
		sl.Drop()
	case fr.own && len(b) <= cap(fr.buf)-len(fr.buf):
		fr.buf = append(fr.buf, b...)
		sl.Drop()
	default:
		// Copy only the unconsumed tail, not the prefix already parsed.
		tail := fr.buf[fr.off:]
		n := len(tail) + len(b)
		if cap(fr.spare) < n {
			// Room for twice the bytes at hand, or for exactly the whole
			// straddling frame once its length is buffered (capped at the
			// frame limit Next enforces, so a bad length cannot force a
			// huge allocation).
			want := 2 * n
			if len(tail) >= 4 {
				want = max(n, 4+min(int(binary.BigEndian.Uint32(tail)), maxFrameLen))
			}
			fr.size = max(min(max(2*fr.size, minFrameBuf), maxFrameBuf), want)
			fr.spare = make([]byte, 0, fr.size)
		}
		fr.buf, fr.off, fr.own = append(append(fr.spare, tail...), b...), 0, true
		fr.spare = nil
		fr.slab.Drop()
		sl.Drop()
		fr.slab = nil
	}
}

// Next returns the next complete frame (ok=false if none buffered). The
// payload aliases the reader's buffer; see the type's ownership rule.
func (fr *FrameReader) Next() (op byte, payload []byte, ok bool) {
	rest := fr.buf[fr.off:]
	if len(rest) < 5 {
		return 0, nil, false
	}
	n := binary.BigEndian.Uint32(rest)
	if n < 1 || n > maxFrameLen {
		panic(fmt.Sprintf("workloads: bad frame length %d", n))
	}
	if len(rest) < 4+int(n) {
		return 0, nil, false
	}
	op = rest[4]
	payload = rest[5 : 4+n : 4+n]
	fr.off += 4 + int(n)
	return op, payload, true
}

// Buffered returns the number of unconsumed bytes.
func (fr *FrameReader) Buffered() int { return len(fr.buf) - fr.off }

// KeyBytes renders a KV key.
func KeyBytes(k uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], k)
	return b[:]
}

// ValueFor deterministically derives a record value from (key, version):
// clients use it to generate writes and to verify reads without storing
// every value. Byte i is seed[i%12] ^ byte(i*131>>3), where seed is the
// big-endian key followed by the big-endian version.
func ValueFor(key uint64, version uint32, size int) []byte {
	return appendValue(make([]byte, 0, size), key, version, size)
}

// appendValue appends ValueFor(key, version, size) to dst and returns the
// extended slice.
func appendValue(dst []byte, key uint64, version uint32, size int) []byte {
	start := len(dst)
	dst = slices.Grow(dst, size)[:start+size]
	out := dst[start:]
	var seed [valueSeedLen]byte
	binary.BigEndian.PutUint64(seed[:], key)
	binary.BigEndian.PutUint32(seed[8:], version)
	// Tile the seed by copy-doubling: every copied prefix is a whole
	// number of seeds, so the tiling stays aligned.
	for n := copy(out, seed[:]); n < size; n *= 2 {
		copy(out[n:], out[:n])
	}
	for off := 0; off < size; off += len(valueMask) {
		subtle.XORBytes(out[off:], out[off:], valueMask[:])
	}
	return dst
}

// valueSeedLen is the length of ValueFor's seed: key, then version.
const valueSeedLen = 12

// DecodeValue inverts ValueFor on a stored record: it returns the key
// and version that v's first 12 bytes encode, and n, how many leading
// bytes of v equal ValueFor(key, version, n) (0 when v is shorter than
// the seed). A record holds its last SET's value followed by whatever
// the slot held before, so a reader compares n with that SET's size.
func DecodeValue(v []byte) (key uint64, version uint32, n int) {
	if len(v) < valueSeedLen {
		return 0, 0, 0
	}
	var seed [valueSeedLen]byte
	for i := range seed {
		seed[i] = v[i] ^ valueMask[i]
	}
	key = binary.BigEndian.Uint64(seed[:8])
	version = binary.BigEndian.Uint32(seed[8:])
	for n = valueSeedLen; n < len(v) && v[n] == seed[n%valueSeedLen]^valueMask[n%len(valueMask)]; n++ {
	}
	return key, version, n
}

// valueMask is ValueFor's position mask byte(i*131>>3), which repeats
// every 2048 bytes: adding 2048 to i adds 2048*131>>3, a multiple of
// 256, before the truncation to a byte.
var valueMask = func() (m [2048]byte) {
	for i := range m {
		m[i] = byte(i * 131 >> 3)
	}
	return m
}()

// pageCache memoizes PageFor: the function is pure and both the servers
// and the verifying clients call it per request, so the shared cached
// slice saves regenerating large bodies. Each simulation is
// single-threaded, but the harness runs independent simulations on a
// worker pool, so the cache itself is locked.
var (
	pageCacheMu sync.RWMutex
	pageCache   = map[uint64][]byte{}
)

// PageFor deterministically derives a web page body from a path id (the
// "golden copy" the paper validates responses against). The returned
// slice is shared and must not be mutated.
func PageFor(pathID uint32, size int) []byte {
	key := uint64(pathID)<<32 | uint64(uint32(size))
	pageCacheMu.RLock()
	p, ok := pageCache[key]
	pageCacheMu.RUnlock()
	if ok {
		return p
	}
	out := make([]byte, size)
	for i := range out {
		out[i] = byte(uint32(i)*2654435761 + pathID*97 + uint32(i)>>8)
	}
	pageCacheMu.Lock()
	pageCache[key] = out
	pageCacheMu.Unlock()
	return out
}
