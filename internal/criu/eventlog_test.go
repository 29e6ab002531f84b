package criu

import (
	"hash/crc32"
	"testing"

	"nilicon/internal/simtime"
)

// The digest chains: folding a and then b gives the digest of a‖b for
// every cut, so a send's digest does not depend on how it was split
// into writes. From the seed it is the plain CRC-32C of the bytes.
func TestDigestSplitInvariant(t *testing.T) {
	rng := simtime.NewRand(3)
	for n := 0; n < 300; n += 1 + n/8 {
		data := make([]byte, n)
		rng.Read(data)
		h := DigestInit()
		if rng.Intn(2) == 0 {
			h = DigestBytes(h, []byte("prefix"))
		}
		whole := DigestBytes(h, data)
		for cut := 0; cut <= n; cut++ {
			if got := DigestBytes(DigestBytes(h, data[:cut]), data[cut:]); got != whole {
				t.Fatalf("len %d cut %d: split digest %#x, whole %#x", n, cut, got, whole)
			}
		}
		if want := uint64(crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli))); DigestBytes(DigestInit(), data) != want {
			t.Fatalf("len %d: digest from the seed is not the CRC-32C of the bytes", n)
		}
	}
}
