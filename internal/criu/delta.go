package criu

import (
	"bytes"
	"fmt"
	"hash"
	"hash/fnv"
	"sync"

	"nilicon/internal/simkernel"
)

// This file implements the delta-compressed replication wire format
// (DESIGN.md §8): instead of shipping every dirty page verbatim, the
// primary encodes each page as the cheapest of four frame kinds, chosen
// against the bases the cumulative-ack protocol proves the backup has
// committed. A delta can therefore never apply against a stale base: any
// page whose last-shipped copy is not yet covered by an ack — in
// particular every page after a NACK-triggered full resynchronization —
// falls back to a full frame until it is re-acknowledged.

// FrameKind identifies the encoding of one page frame on the wire.
type FrameKind uint8

// Frame kinds (§8). FrameFull carries the verbatim page. FrameDelta
// carries a sparse XOR patch against the backup's committed copy of the
// same page. FrameZero elides an all-zero page entirely. FrameDedup
// references an identical committed page under another store key
// (possibly in a different VMA or process).
const (
	FrameFull FrameKind = iota
	FrameDelta
	FrameZero
	FrameDedup
)

// Wire-size model: every frame starts with a (kind, page number, length)
// header; hashes and store keys are 8 bytes each. A full frame's wire
// cost equals the un-encoded per-page cost in Image.SizeBytes, so
// enabling the encoder never inflates a page that fails to compress
// beyond the 8-byte content tag.
const (
	frameHeaderBytes = 16
	frameFieldBytes  = 8
)

// PageFrame is one encoded page on the replication wire.
type PageFrame struct {
	Kind FrameKind
	PN   uint64 // page number within the process address space

	// Hash is the FNV-1a 64-bit hash of the page's full content; the
	// backup verifies every reconstruction against it.
	Hash uint64

	// Data is the verbatim content (FrameFull only).
	Data []byte
	// Delta is the sparse XOR patch (FrameDelta only).
	Delta []byte
	// BaseHash is the required hash of the backup's committed copy the
	// patch applies against (FrameDelta only).
	BaseHash uint64
	// Donor is the store key of the identical committed page
	// (FrameDedup only).
	Donor uint64
}

// WireBytes returns the frame's modeled transfer size.
func (f *PageFrame) WireBytes() int64 {
	switch f.Kind {
	case FrameFull:
		return frameHeaderBytes + frameFieldBytes + simkernel.PageSize
	case FrameDelta:
		return frameHeaderBytes + 2*frameFieldBytes + int64(len(f.Delta))
	case FrameZero:
		return frameHeaderBytes + frameFieldBytes
	case FrameDedup:
		return frameHeaderBytes + 2*frameFieldBytes
	default:
		panic("criu: unknown frame kind")
	}
}

// PageKey packs (process index, page number) into the page store's
// 64-bit key space, matching the backup's radix-store layout.
func PageKey(procIdx int, pn uint64) uint64 {
	return uint64(procIdx)<<28 | pn
}

// --- Hashing ------------------------------------------------------------------

var hasherPool = sync.Pool{New: func() any { return fnv.New64a() }}

// HashPage returns the stdlib FNV-1a 64-bit hash of a page's content.
func HashPage(data []byte) uint64 {
	h := hasherPool.Get().(hash.Hash64)
	h.Reset()
	h.Write(data)
	v := h.Sum64()
	hasherPool.Put(h)
	return v
}

func allZero(data []byte) bool {
	for _, b := range data {
		if b != 0 {
			return false
		}
	}
	return true
}

// --- Sparse XOR patches -------------------------------------------------------

// maxDonorCands bounds the per-hash donor candidate list. A dedup
// reference needs exactly one verified donor, so keeping more than a
// handful of keys per content hash only grows the verification scan —
// pathological on workloads where thousands of pages share one content
// (the scan would be O(pages) per encoded page). Missing a donor because
// all cached candidates went stale merely costs a full frame.
const maxDonorCands = 8

// A patch is a sequence of runs: [offset u16][length u16][xor bytes...].
// Runs closer together than a run header are merged, so the patch size
// is Σ(4 + runLen) over maximally-coalesced difference runs.
const runHeaderBytes = 4

// EncodeXORDelta builds the sparse XOR patch that turns base into cur.
// Returns nil for identical pages (an empty patch).
func EncodeXORDelta(base, cur []byte) []byte {
	if len(base) != len(cur) {
		panic("criu: delta between different-size pages")
	}
	var patch []byte
	i := 0
	for i < len(cur) {
		if base[i] == cur[i] {
			i++
			continue
		}
		// Start of a difference run; extend it past gaps shorter than a
		// run header (cheaper to XOR equal bytes than to start a new run).
		start := i
		end := i + 1
		for j := end; j < len(cur); j++ {
			if base[j] != cur[j] {
				end = j + 1
			} else if j-end >= runHeaderBytes {
				break
			}
		}
		patch = append(patch,
			byte(start>>8), byte(start),
			byte((end-start)>>8), byte(end-start))
		for j := start; j < end; j++ {
			patch = append(patch, base[j]^cur[j])
		}
		i = end
	}
	return patch
}

// ApplyXORDelta reconstructs the new page content from a committed base
// and a sparse XOR patch. The result is a fresh buffer; base is not
// modified.
func ApplyXORDelta(base, patch []byte) ([]byte, error) {
	out := make([]byte, len(base))
	copy(out, base)
	for i := 0; i < len(patch); {
		if len(patch)-i < runHeaderBytes {
			return nil, fmt.Errorf("criu: truncated delta run header")
		}
		off := int(patch[i])<<8 | int(patch[i+1])
		n := int(patch[i+2])<<8 | int(patch[i+3])
		i += runHeaderBytes
		if n <= 0 || off+n > len(out) || i+n > len(patch) {
			return nil, fmt.Errorf("criu: delta run [%d,%d) out of bounds", off, off+n)
		}
		for j := 0; j < n; j++ {
			out[off+j] ^= patch[i+j]
		}
		i += n
	}
	return out, nil
}

// --- Encoder ------------------------------------------------------------------

// sentPage is the encoder's record of the page content it last shipped.
type sentPage struct {
	data  []byte
	hash  uint64
	epoch uint64 // epoch the copy was shipped in
}

// EncodeStats summarizes one image's encoding, for metric streams and
// the virtual-time CPU charge (hashing and diffing are real work).
type EncodeStats struct {
	FullFrames, DeltaFrames, ZeroFrames, DedupFrames int
	// HashedPages counts content hashes computed (one per dirty page).
	HashedPages int
	// DiffedPages counts page-pair comparisons: XOR diffs plus dedup
	// byte-verifications.
	DiffedPages int
}

// DeltaEncoder rewrites checkpoint images into wire frames. It mirrors
// the backup's committed page state: for every store key it keeps the
// copy it last shipped, with the epoch that shipped it. A key is usable
// as a delta base or dedup donor only when that epoch is covered by the
// backup's cumulative acknowledgment — what the protocol has proven
// committed. Any full image (the initial sync or a post-NACK
// resynchronization baseline) resets the encoder completely, so every
// page falls back to full frames until the baseline is re-acked.
//
// The bases are the checkpoint's lent page buffers themselves:
// the container never writes a lent buffer again (its next write copies
// the page first), so a base keeps its shipped bytes without a copy of
// its own, and nobody recycles it (DESIGN.md §8).
type DeltaEncoder struct {
	base   map[uint64]*sentPage
	byHash map[uint64][]uint64 // content hash → candidate donor keys, insertion-ordered
}

// NewDeltaEncoder returns an encoder with no shipped pages.
func NewDeltaEncoder() *DeltaEncoder {
	return &DeltaEncoder{
		base:   make(map[uint64]*sentPage),
		byHash: make(map[uint64][]uint64),
	}
}

// EncodeImage rewrites img's dirty pages into wire frames in place
// (ProcessImage.Pages → ProcessImage.Frames) and returns the encoding
// stats. acked/haveAck is the primary's cumulative-ack watermark at
// submission time.
func (e *DeltaEncoder) EncodeImage(img *Image, acked uint64, haveAck bool) EncodeStats {
	if img.Full {
		// Initial sync or resynchronization baseline: the backup (re)builds
		// its store from this image alone, so nothing previously shipped
		// may serve as a base until the baseline itself is acknowledged.
		e.base = make(map[uint64]*sentPage)
		e.byHash = make(map[uint64][]uint64)
	}
	var st EncodeStats
	for pi := range img.Procs {
		p := &img.Procs[pi]
		if len(p.Pages) == 0 {
			continue
		}
		frames := make([]PageFrame, 0, len(p.Pages))
		for _, pg := range p.Pages {
			frames = append(frames, e.encodePage(pi, pg, img.Epoch, acked, haveAck, &st))
		}
		p.Frames = frames
		p.Pages = nil
	}
	img.Encoded = true
	return st
}

// encodePage ships one page as the cheapest frame it can: zero, then a
// dedup reference, then an XOR delta, then full.
func (e *DeltaEncoder) encodePage(procIdx int, pg PageImage, epoch, acked uint64, haveAck bool, st *EncodeStats) PageFrame {
	key := PageKey(procIdx, pg.PN)
	hv := HashPage(pg.Data)
	st.HashedPages++

	if allZero(pg.Data) {
		// The base is the all-zero stamp frame, so the encoder does not
		// keep the lent buffer alive.
		e.setBase(key, simkernel.StampPage(0), hv, epoch)
		st.ZeroFrames++
		return PageFrame{Kind: FrameZero, PN: pg.PN, Hash: hv}
	}

	if donor, ok := e.findDonor(key, hv, pg.Data, acked, haveAck, st); ok {
		e.setBase(key, pg.Data, hv, epoch)
		st.DedupFrames++
		return PageFrame{Kind: FrameDedup, PN: pg.PN, Hash: hv, Donor: donor}
	}

	// An XOR delta against the backup's committed copy of this page.
	if prev := e.base[key]; prev != nil && haveAck && prev.epoch <= acked &&
		len(prev.data) == len(pg.Data) {
		st.DiffedPages++
		// setBase below rewrites prev in place: the base hash must be
		// captured first or the frame would claim its own content as base.
		baseHash := prev.hash
		patch := EncodeXORDelta(prev.data, pg.Data)
		deltaWire := int64(frameHeaderBytes + 2*frameFieldBytes + len(patch))
		fullWire := int64(frameHeaderBytes + frameFieldBytes + simkernel.PageSize)
		if deltaWire < fullWire {
			e.setBase(key, pg.Data, hv, epoch)
			st.DeltaFrames++
			return PageFrame{Kind: FrameDelta, PN: pg.PN, Hash: hv,
				BaseHash: baseHash, Delta: patch}
		}
	}

	// Incompressible (or no provably-committed base): full frame. The
	// lent buffer is the payload and the base at once.
	e.setBase(key, pg.Data, hv, epoch)
	st.FullFrames++
	return PageFrame{Kind: FrameFull, PN: pg.PN, Hash: hv, Data: pg.Data}
}

// setBase records data as the last-shipped copy of key.
func (e *DeltaEncoder) setBase(key uint64, data []byte, hv, epoch uint64) {
	if prev := e.base[key]; prev != nil {
		if prev.hash != hv && len(e.byHash[hv]) < maxDonorCands {
			e.byHash[hv] = append(e.byHash[hv], key)
		}
		prev.data, prev.hash, prev.epoch = data, hv, epoch
		return
	}
	e.base[key] = &sentPage{data: data, hash: hv, epoch: epoch}
	if len(e.byHash[hv]) < maxDonorCands {
		e.byHash[hv] = append(e.byHash[hv], key)
	}
}

// findDonor looks for a committed page with identical content. The
// candidate list is insertion-ordered and the scan byte-verifies the
// winner on the primary, so a hash collision can never ship a wrong
// reference and the choice is deterministic. Stale entries (keys whose
// content has since changed) are compacted away during the scan.
func (e *DeltaEncoder) findDonor(self, hv uint64, data []byte, acked uint64, haveAck bool, st *EncodeStats) (uint64, bool) {
	cands := e.byHash[hv]
	if len(cands) == 0 {
		return 0, false
	}
	var donor uint64
	found := false
	w := 0
	for _, k := range cands {
		sp := e.base[k]
		if sp == nil || sp.hash != hv {
			continue // stale: the key's content moved to another hash
		}
		cands[w] = k
		w++
		if found || k == self || !haveAck || sp.epoch > acked {
			continue
		}
		st.DiffedPages++
		if bytes.Equal(sp.data, data) {
			donor, found = k, true
		}
	}
	if w == 0 {
		delete(e.byHash, hv)
	} else {
		e.byHash[hv] = cands[:w]
	}
	return donor, found
}

// --- Decoding (backup side) ---------------------------------------------------

// DecodeFrame reconstructs a page's full content from a wire frame,
// resolving delta bases and dedup donors against the backup's committed
// page store. Every reconstruction is verified against the frame's
// content hash; any mismatch — a delta against a stale base, a vanished
// or diverged donor — is an error, and the caller must reject the whole
// image rather than commit a corrupted page.
//
// A dedup frame returns the donor's stored slice itself: the store then
// holds the same content under both keys, which is exactly the radix
// store's cross-VMA/process dedup. A zero frame returns the all-zero
// stamp frame. Stored pages are never mutated in place (only replaced),
// so the sharing is safe.
func DecodeFrame(f *PageFrame, key uint64, store *PageStore) ([]byte, error) {
	switch f.Kind {
	case FrameFull:
		return f.Data, nil
	case FrameZero:
		return simkernel.StampPage(0), nil
	case FrameDelta:
		base := store.Get(key)
		if base == nil {
			return nil, fmt.Errorf("criu: delta frame for page %#x has no committed base", key)
		}
		if got := HashPage(base); got != f.BaseHash {
			return nil, fmt.Errorf("criu: delta frame for page %#x applies against base %#x, committed base is %#x (stale)", key, f.BaseHash, got)
		}
		out, err := ApplyXORDelta(base, f.Delta)
		if err != nil {
			return nil, err
		}
		if got := HashPage(out); got != f.Hash {
			return nil, fmt.Errorf("criu: delta frame for page %#x reconstructed %#x, want %#x", key, got, f.Hash)
		}
		return out, nil
	case FrameDedup:
		donor := store.Get(f.Donor)
		if donor == nil {
			return nil, fmt.Errorf("criu: dedup frame for page %#x references missing donor %#x", key, f.Donor)
		}
		if got := HashPage(donor); got != f.Hash {
			return nil, fmt.Errorf("criu: dedup frame for page %#x: donor %#x content %#x, want %#x (stale)", key, f.Donor, got, f.Hash)
		}
		return donor, nil
	default:
		return nil, fmt.Errorf("criu: unknown frame kind %d", f.Kind)
	}
}
