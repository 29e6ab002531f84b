package criu

import (
	"bytes"
	"testing"

	"nilicon/internal/simkernel"
)

// fillPage builds a page whose content is a deterministic function of
// seed, so tests can reconstruct expected content without sharing slices.
func fillPage(pn uint64, seed byte) PageImage {
	d := make([]byte, simkernel.PageSize)
	for i := range d {
		d[i] = byte(i)*31 + seed
	}
	return PageImage{PN: pn, Data: d}
}

func clonePage(p PageImage) []byte {
	cp := make([]byte, len(p.Data))
	copy(cp, p.Data)
	return cp
}

// commitImage mirrors the backup agent: decode every frame (rejecting
// the whole image on any error), then install the results. Installing
// after the full decode pass matches the backup's commit, so a dedup
// donor shipped in the same image is never visible to its referrers —
// the encoder must not produce such references.
func commitImage(t *testing.T, img *Image, store *PageStore) {
	t.Helper()
	type dec struct {
		key  uint64
		data []byte
	}
	var decoded []dec
	for pi := range img.Procs {
		for fi := range img.Procs[pi].Frames {
			f := &img.Procs[pi].Frames[fi]
			key := PageKey(pi, f.PN)
			data, err := DecodeFrame(f, key, store)
			if err != nil {
				t.Fatalf("decode %v frame for page %#x: %v", f.Kind, key, err)
			}
			decoded = append(decoded, dec{key, data})
		}
	}
	store.BeginCheckpoint()
	for _, d := range decoded {
		store.PutOwned(d.key, d.data)
	}
}

func imageOf(epoch uint64, full bool, pages ...PageImage) *Image {
	return &Image{Epoch: epoch, Full: full, Procs: []ProcessImage{{PID: 1, Pages: pages}}}
}

func TestEncodeXORDeltaEdgeCases(t *testing.T) {
	base := fillPage(0, 1).Data
	// Identical pages: empty patch.
	if patch := EncodeXORDelta(base, base); patch != nil {
		t.Fatalf("identical pages produced %d-byte patch", len(patch))
	}
	// Single-byte diffs at the extremes.
	for _, off := range []int{0, 1, simkernel.PageSize - 1} {
		cur := make([]byte, len(base))
		copy(cur, base)
		cur[off] ^= 0xFF
		patch := EncodeXORDelta(base, cur)
		if len(patch) != runHeaderBytes+1 {
			t.Fatalf("1-byte diff at %d: patch = %d bytes", off, len(patch))
		}
		out, err := ApplyXORDelta(base, patch)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, cur) {
			t.Fatalf("round trip failed for diff at %d", off)
		}
	}
	// Two diffs separated by less than a run header merge into one run;
	// separated by more, they stay two runs.
	near := make([]byte, len(base))
	copy(near, base)
	near[100] ^= 1
	near[103] ^= 1 // gap of 2 < runHeaderBytes
	if patch := EncodeXORDelta(base, near); len(patch) != runHeaderBytes+4 {
		t.Fatalf("merged run patch = %d bytes, want %d", len(patch), runHeaderBytes+4)
	}
	far := make([]byte, len(base))
	copy(far, base)
	far[100] ^= 1
	far[200] ^= 1
	if patch := EncodeXORDelta(base, far); len(patch) != 2*(runHeaderBytes+1) {
		t.Fatalf("two-run patch = %d bytes, want %d", len(patch), 2*(runHeaderBytes+1))
	}
	// Whole-page rewrite round-trips.
	cur := fillPage(0, 99).Data
	out, err := ApplyXORDelta(base, EncodeXORDelta(base, cur))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, cur) {
		t.Fatal("whole-page round trip failed")
	}
	// ApplyXORDelta must not mutate the base.
	if !bytes.Equal(base, fillPage(0, 1).Data) {
		t.Fatal("ApplyXORDelta mutated the base")
	}
	// Corrupt patches are rejected, not applied.
	if _, err := ApplyXORDelta(base, []byte{0, 0, 0}); err == nil {
		t.Fatal("truncated run header accepted")
	}
	if _, err := ApplyXORDelta(base, []byte{0xFF, 0xFF, 0, 4, 1, 2, 3, 4}); err == nil {
		t.Fatal("out-of-bounds run accepted")
	}
	if _, err := ApplyXORDelta(base, []byte{0, 0, 0, 8, 1}); err == nil {
		t.Fatal("truncated run body accepted")
	}
}

// The encoder ships full frames until the cumulative ack proves a base
// committed, then switches to the cheapest frame kind per page; the
// decoded stream reproduces the exact page content at every step.
func TestDeltaEncoderLifecycle(t *testing.T) {
	enc := NewDeltaEncoder()
	store := NewPageStore(true)

	// Initial full sync, nothing acked: content pages go verbatim, the
	// all-zero page is still elided (no base needed to install zeros).
	pA, pB := fillPage(10, 1), fillPage(11, 1) // identical content
	pZ := PageImage{PN: 12, Data: make([]byte, simkernel.PageSize)}
	wantA, wantB := clonePage(pA), clonePage(pB)
	img0 := imageOf(0, true, pA, pB, pZ)
	st := enc.EncodeImage(img0, 0, false)
	if st.FullFrames != 2 || st.ZeroFrames != 1 || st.DeltaFrames+st.DedupFrames != 0 {
		t.Fatalf("full-sync stats = %+v", st)
	}
	if st.HashedPages != 3 {
		t.Fatalf("hashed %d pages, want 3", st.HashedPages)
	}
	if !img0.Encoded || img0.Procs[0].Pages != nil {
		t.Fatal("image not rewritten in place")
	}
	commitImage(t, img0, store)

	// Epoch 1, epoch 0 acked: a lightly-touched page goes as a delta
	// against its committed copy, a page identical to another committed
	// page goes as a dedup reference, a fresh zero page is elided and a
	// fresh incompressible page goes full.
	newA := fillPage(10, 1)
	newA.Data[17] ^= 0x5A
	wantNewA := clonePage(newA)
	pC := PageImage{PN: 13, Data: clonePage(PageImage{Data: wantB})} // == committed B
	pC.PN = 13
	pD := PageImage{PN: 14, Data: make([]byte, simkernel.PageSize)}
	pE := fillPage(15, 77)
	wantE := clonePage(pE)
	img1 := imageOf(1, false, newA, pC, pD, pE)
	st = enc.EncodeImage(img1, 0, true)
	if st.DeltaFrames != 1 || st.DedupFrames != 1 || st.ZeroFrames != 1 || st.FullFrames != 1 {
		t.Fatalf("epoch-1 stats = %+v", st)
	}
	frames := img1.Procs[0].Frames
	for _, f := range frames {
		switch f.PN {
		case 10:
			if f.Kind != FrameDelta {
				t.Fatalf("page 10 shipped as %v, want delta", f.Kind)
			}
			// Regression: the frame's base hash is the committed base's
			// hash, not the new content's own hash (the encoder updates
			// its base record in place after capturing it).
			if f.BaseHash != HashPage(wantA) {
				t.Fatalf("delta base hash %#x, want committed %#x", f.BaseHash, HashPage(wantA))
			}
			if f.Hash != HashPage(wantNewA) {
				t.Fatalf("delta content hash %#x, want %#x", f.Hash, HashPage(wantNewA))
			}
			if f.WireBytes() >= simkernel.PageSize {
				t.Fatalf("delta frame wire %d bytes not below page size", f.WireBytes())
			}
		case 13:
			if f.Kind != FrameDedup {
				t.Fatalf("page 13 shipped as %v, want dedup", f.Kind)
			}
			if f.Donor != PageKey(0, 10) && f.Donor != PageKey(0, 11) {
				t.Fatalf("dedup donor = %#x", f.Donor)
			}
		case 14:
			if f.Kind != FrameZero {
				t.Fatalf("page 14 shipped as %v, want zero", f.Kind)
			}
		case 15:
			if f.Kind != FrameFull {
				t.Fatalf("page 15 shipped as %v, want full", f.Kind)
			}
		}
	}
	commitImage(t, img1, store)

	for _, want := range []struct {
		pn   uint64
		data []byte
	}{{10, wantNewA}, {11, wantB}, {13, wantB}, {15, wantE}} {
		got := store.Get(PageKey(0, want.pn))
		if !bytes.Equal(got, want.data) {
			t.Fatalf("committed page %d diverged from primary", want.pn)
		}
	}
	for _, pn := range []uint64{12, 14} {
		if got := store.Get(PageKey(0, pn)); !allZero(got) || len(got) != simkernel.PageSize {
			t.Fatalf("zero page %d not committed as zeros", pn)
		}
	}
}

// A page is usable as a delta base or dedup donor only when its last
// shipment is covered by the cumulative ack; otherwise the encoder must
// fall back to full frames.
func TestDeltaEncoderRequiresAck(t *testing.T) {
	enc := NewDeltaEncoder()
	base := fillPage(10, 1)
	enc.EncodeImage(imageOf(0, true, base), 0, false)

	// No ack yet: the epoch-0 shipment is unproven, so the touched page
	// must go full even though the encoder has a base for it.
	touched := fillPage(10, 1)
	touched.Data[0] ^= 1
	img := imageOf(1, false, touched)
	if st := enc.EncodeImage(img, 0, false); st.FullFrames != 1 || st.DeltaFrames != 0 {
		t.Fatalf("unacked base produced %+v", st)
	}

	// Epoch 1's shipment acked (cumulative, covers epoch 0 too): now the
	// same kind of touch deltas.
	touched2 := fillPage(10, 1)
	touched2.Data[0] ^= 2
	if st := enc.EncodeImage(imageOf(2, false, touched2), 1, true); st.DeltaFrames != 1 {
		t.Fatalf("acked base did not delta: %+v", st)
	}

	// A donor shipped in the current epoch (not yet acked) must not be
	// referenced: the backup installs an image's pages only after the
	// full decode pass, so an intra-image reference would not resolve.
	twinA, twinB := fillPage(20, 9), fillPage(21, 9)
	if st := enc.EncodeImage(imageOf(3, false, twinA, twinB), 1, true); st.DedupFrames != 0 || st.FullFrames != 2 {
		t.Fatalf("intra-image dedup reference: %+v", st)
	}
	// Once epoch 3 is acked, the twin dedups against its committed copy.
	twinC := fillPage(22, 9)
	if st := enc.EncodeImage(imageOf(4, false, twinC), 3, true); st.DedupFrames != 1 {
		t.Fatalf("acked twin did not dedup: %+v", st)
	}
}

// A full image (initial sync or post-NACK resynchronization baseline)
// resets the encoder: nothing shipped before the baseline may serve as a
// base, and deltas resume only after the baseline itself is acked.
func TestDeltaEncoderResetOnFullResync(t *testing.T) {
	enc := NewDeltaEncoder()
	pg := fillPage(10, 1)
	enc.EncodeImage(imageOf(0, true, pg), 0, false)
	t1 := fillPage(10, 1)
	t1.Data[5] ^= 1
	if st := enc.EncodeImage(imageOf(1, false, t1), 0, true); st.DeltaFrames != 1 {
		t.Fatalf("pre-resync delta missing: %+v", st)
	}

	// NACK → full resync at epoch 2. Even with the stale high ack the
	// resync itself ships full frames.
	r := fillPage(10, 1)
	r.Data[5] ^= 1
	if st := enc.EncodeImage(imageOf(2, true, r), 1, true); st.FullFrames != 1 || st.DeltaFrames != 0 {
		t.Fatalf("resync baseline not full: %+v", st)
	}
	// The next incremental epoch still lacks an ack covering the
	// baseline (acked=1 < 2): full frames again.
	t3 := fillPage(10, 1)
	t3.Data[5] ^= 2
	if st := enc.EncodeImage(imageOf(3, false, t3), 1, true); st.FullFrames != 1 || st.DeltaFrames != 0 {
		t.Fatalf("post-resync page delta'd against unproven baseline: %+v", st)
	}
	// Once the ack covers the post-resync shipment, deltas resume.
	t4 := fillPage(10, 1)
	t4.Data[5] ^= 3
	if st := enc.EncodeImage(imageOf(4, false, t4), 3, true); st.DeltaFrames != 1 {
		t.Fatalf("delta did not resume after re-ack: %+v", st)
	}
}

// The backup rejects frames whose bases diverged — the decode error is
// the signal that forces the caller to NACK instead of committing a
// corrupted page.
func TestDecodeFrameRejectsStaleState(t *testing.T) {
	store := NewPageStore(true)
	committed := fillPage(10, 1).Data
	store.Put(PageKey(0, 10), committed)

	cur := fillPage(10, 2).Data
	good := &PageFrame{
		Kind: FrameDelta, PN: 10, Hash: HashPage(cur),
		BaseHash: HashPage(committed), Delta: EncodeXORDelta(committed, cur),
	}
	if out, err := DecodeFrame(good, PageKey(0, 10), store); err != nil || !bytes.Equal(out, cur) {
		t.Fatalf("valid delta rejected: %v", err)
	}

	// Delta whose base hash names content the store does not hold (the
	// post-resync stale-delta case).
	stale := *good
	stale.BaseHash ^= 1
	if _, err := DecodeFrame(&stale, PageKey(0, 10), store); err == nil {
		t.Fatal("stale-base delta accepted")
	}
	// Delta for a page with no committed copy at all.
	if _, err := DecodeFrame(good, PageKey(0, 99), store); err == nil {
		t.Fatal("baseless delta accepted")
	}
	// Reconstruction not matching the content hash.
	bad := *good
	bad.Hash ^= 1
	if _, err := DecodeFrame(&bad, PageKey(0, 10), store); err == nil {
		t.Fatal("corrupt reconstruction accepted")
	}

	// Dedup reference to a missing donor, then to a diverged donor.
	ref := &PageFrame{Kind: FrameDedup, PN: 20, Hash: HashPage(committed), Donor: PageKey(0, 50)}
	if _, err := DecodeFrame(ref, PageKey(0, 20), store); err == nil {
		t.Fatal("missing donor accepted")
	}
	store.Put(PageKey(0, 50), cur) // content != ref.Hash
	if _, err := DecodeFrame(ref, PageKey(0, 20), store); err == nil {
		t.Fatal("diverged donor accepted")
	}
	store.Put(PageKey(0, 50), committed)
	if out, err := DecodeFrame(ref, PageKey(0, 20), store); err != nil || !bytes.Equal(out, committed) {
		t.Fatalf("valid dedup rejected: %v", err)
	}
}

// Frame wire sizes: the whole point of the encoder. A full frame costs
// the verbatim page plus the 8-byte content tag; the compressed kinds
// are header-sized.
func TestFrameWireBytes(t *testing.T) {
	full := PageFrame{Kind: FrameFull}
	if full.WireBytes() != frameHeaderBytes+frameFieldBytes+simkernel.PageSize {
		t.Fatalf("full frame = %d bytes", full.WireBytes())
	}
	zero := PageFrame{Kind: FrameZero}
	dedup := PageFrame{Kind: FrameDedup}
	delta := PageFrame{Kind: FrameDelta, Delta: make([]byte, 12)}
	if zero.WireBytes() != 24 || dedup.WireBytes() != 32 || delta.WireBytes() != 44 {
		t.Fatalf("wire sizes: zero=%d dedup=%d delta=%d", zero.WireBytes(), dedup.WireBytes(), delta.WireBytes())
	}
}

// TestEncoderBasesAreLentFrames: the encoder keeps no page copies of its
// own. A full frame's payload and the encoder's base for that page are
// the buffer the checkpoint lent from the container's frame. The
// container's next write copies the page first, so the shipped bytes
// stay what was shipped, and the following epoch's delta and dedup
// frames, encoded against that base, decode hash-verified at the backup
// into the primary's memory.
func TestEncoderBasesAreLentFrames(t *testing.T) {
	const pages = 8
	ctr, _ := newTestContainer()
	p, v := addWorkProcess(ctr, "app", pages)
	content := func(seed uint32) []byte {
		d := make([]byte, simkernel.PageSize)
		for i := range d {
			seed = seed*1664525 + 1013904223
			d[i] = byte(seed >> 24)
		}
		return d
	}
	pageAddr := func(i int) uint64 { return v.Start + uint64(i)*simkernel.PageSize }
	write := func(i int, data []byte) {
		t.Helper()
		if err := p.Mem.Write(pageAddr(i), data); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < pages; i++ {
		write(i, content(uint32(i+1)))
	}
	procIdx := func(img *Image) int {
		for pi := range img.Procs {
			if img.Procs[pi].PID == p.PID {
				return pi
			}
		}
		t.Fatal("checkpoint has no image of the app process")
		return -1
	}
	e := NewEngine(ctr, NiLiConOptions())
	defer e.Close()
	enc := NewDeltaEncoder()
	store := NewPageStore(true)

	img0, _ := e.Checkpoint()
	ctr.Thaw()
	enc.EncodeImage(img0, 0, false)
	commitImage(t, img0, store)

	// Epoch 1 rewrites page 0 whole: no patch beats a full frame.
	pn := pageAddr(0) / simkernel.PageSize
	write(0, content(100))
	img1, _ := e.Checkpoint()
	ctr.Thaw()
	pi := procIdx(img1)
	key := PageKey(pi, pn)
	var lent []byte
	for _, pg := range img1.Procs[pi].Pages {
		if pg.PN == pn {
			lent = pg.Data
		}
	}
	if lent == nil || &lent[0] != &p.Mem.PageData(pn)[0] {
		t.Fatal("the checkpoint did not lend page 0's live frame")
	}
	enc.EncodeImage(img1, 0, true)
	var full *PageFrame
	for fi := range img1.Procs[pi].Frames {
		if f := &img1.Procs[pi].Frames[fi]; f.PN == pn {
			full = f
		}
	}
	if full == nil || full.Kind != FrameFull {
		t.Fatalf("page 0 did not ship as a full frame: %+v", full)
	}
	if &full.Data[0] != &lent[0] {
		t.Fatal("the full frame's payload is a copy, not the lent buffer")
	}
	if b := enc.base[key]; b == nil || &b.data[0] != &lent[0] {
		t.Fatal("the encoder's base is a copy, not the lent buffer")
	}
	commitImage(t, img1, store)
	shipped := bytes.Clone(lent)

	// Epoch 2: a one-byte write to page 0 must copy on write; page 1
	// becomes identical to page 2's committed content.
	write(0, []byte{0xA5})
	if &p.Mem.PageData(pn)[0] == &lent[0] {
		t.Fatal("a write to a lent page did not copy it")
	}
	if !bytes.Equal(lent, shipped) || !bytes.Equal(store.Get(key), shipped) {
		t.Fatal("a write to the container changed the shipped bytes")
	}
	write(1, content(3))
	img2, _ := e.Checkpoint()
	ctr.Thaw()
	st := enc.EncodeImage(img2, 1, true)
	if st.DeltaFrames != 1 || st.DedupFrames != 1 || st.FullFrames != 0 {
		t.Fatalf("epoch-2 stats = %+v, want one delta and one dedup frame", st)
	}
	commitImage(t, img2, store)
	for i := 0; i < pages; i++ {
		pn := pageAddr(i) / simkernel.PageSize
		want, err := p.Mem.Read(pageAddr(i), simkernel.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(store.Get(PageKey(pi, pn)), want) {
			t.Fatalf("page %d: the backup's copy differs from the primary's memory", i)
		}
	}
}
