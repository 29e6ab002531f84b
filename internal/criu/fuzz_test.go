package criu

import (
	"bytes"
	"testing"

	"nilicon/internal/simkernel"
)

// FuzzFrameDecoder drives the backup's frame decoding with arbitrary page
// contents a and b, an arbitrary patch and a byte position flip:
//
//   - for any equal-size pair (a and b cut to their common length, at
//     most one page), ApplyXORDelta(base, EncodeXORDelta(base, cur))
//     reproduces cur exactly;
//   - an arbitrary patch, applied raw or shipped in a delta frame, is
//     either an error or a reconstruction the frame's content hash
//     vouches for; it never panics and never modifies the committed base;
//   - a delta frame whose committed base, or a dedup frame whose donor,
//     changed after encoding (one byte flipped at flip) is rejected, as
//     are a missing base or donor and an unknown frame kind.
//
// The committed corpus (testdata/fuzz/FuzzFrameDecoder) holds malformed
// patches: truncated headers, zero-length and out-of-bounds runs, runs
// past the patch's end.
func FuzzFrameDecoder(f *testing.F) {
	f.Add([]byte{}, []byte{}, []byte{}, uint16(0))
	f.Add([]byte("committed base page"), []byte("committed BASE page!"), []byte{0, 10, 0, 4, 32, 32, 32, 32}, uint16(10))
	f.Add(bytes.Repeat([]byte{0xAA}, simkernel.PageSize), bytes.Repeat([]byte{0x55}, simkernel.PageSize), []byte{0x0F, 0xFF, 0, 1, 1}, uint16(0xFFFF))
	f.Fuzz(func(t *testing.T, a, b, patch []byte, flip uint16) {
		n := min(len(a), len(b), simkernel.PageSize)
		base, cur := a[:n], b[:n]
		if got, err := ApplyXORDelta(base, EncodeXORDelta(base, cur)); err != nil || !bytes.Equal(got, cur) {
			t.Fatalf("delta round trip over %d bytes: err=%v, content differs=%v", n, err, !bytes.Equal(got, cur))
		}
		baseCopy := bytes.Clone(base)
		if got, err := ApplyXORDelta(base, patch); !bytes.Equal(base, baseCopy) {
			t.Fatal("ApplyXORDelta modified its base")
		} else if err == nil && len(got) != n {
			t.Fatalf("ApplyXORDelta returned %d bytes for a %d-byte base", len(got), n)
		}

		basePg := make([]byte, simkernel.PageSize)
		curPg := make([]byte, simkernel.PageSize)
		copy(basePg, a)
		copy(curPg, b)
		key, donorKey := PageKey(0, 1), PageKey(1, 9)
		store := NewPageStore(true)
		store.Put(key, basePg)
		store.Put(donorKey, curPg)
		decode := func(fr PageFrame, k uint64) ([]byte, error) {
			t.Helper()
			got, err := DecodeFrame(&fr, k, store)
			if err == nil && HashPage(got) != fr.Hash {
				t.Fatalf("%v frame decoded to content hashing %#x, frame says %#x", fr.Kind, HashPage(got), fr.Hash)
			}
			return got, err
		}
		delta := PageFrame{Kind: FrameDelta, PN: 1, Hash: HashPage(curPg),
			BaseHash: HashPage(basePg), Delta: EncodeXORDelta(basePg, curPg)}
		if got, err := decode(delta, key); err != nil || !bytes.Equal(got, curPg) {
			t.Fatalf("valid delta frame: err=%v", err)
		}
		bad := delta
		bad.Delta = patch
		if got, err := decode(bad, key); err == nil && !bytes.Equal(got, curPg) {
			t.Fatal("an arbitrary patch decoded to content other than the frame's page")
		}
		dedup := PageFrame{Kind: FrameDedup, PN: 1, Hash: HashPage(curPg), Donor: donorKey}
		if got, err := decode(dedup, key); err != nil || !bytes.Equal(got, curPg) {
			t.Fatalf("valid dedup frame: err=%v", err)
		}

		// Stale state: one flipped byte changes an FNV-1a hash (each
		// step of the hash is a bijection), so both frames must fail.
		i := int(flip) % simkernel.PageSize
		staleBase := bytes.Clone(basePg)
		staleBase[i] ^= byte(flip>>8) | 1
		store.Put(key, staleBase)
		if _, err := decode(delta, key); err == nil {
			t.Fatalf("delta frame applied against a base changed at byte %d", i)
		}
		staleDonor := bytes.Clone(curPg)
		staleDonor[i] ^= byte(flip>>8) | 1
		store.Put(donorKey, staleDonor)
		if _, err := decode(dedup, key); err == nil {
			t.Fatalf("dedup frame resolved against a donor changed at byte %d", i)
		}
		if _, err := decode(delta, PageKey(2, 1)); err == nil {
			t.Fatal("delta frame decoded with no committed base")
		}
		missing := dedup
		missing.Donor = PageKey(2, 9)
		if _, err := decode(missing, key); err == nil {
			t.Fatal("dedup frame decoded with a missing donor")
		}
		unknown := delta
		unknown.Kind = FrameDedup + 1 + FrameKind(flip%200)
		if _, err := decode(unknown, key); err == nil {
			t.Fatalf("unknown frame kind %d decoded", unknown.Kind)
		}
	})
}
