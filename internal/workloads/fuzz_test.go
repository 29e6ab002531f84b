package workloads

import (
	"bytes"
	"testing"
)

// FuzzFrameReader encodes an arbitrary (op, payload) sequence with
// AppendFrame, feeds the stream to a FrameReader in fuzz-chosen chunks
// and checks that the frames come back in order. msgs is read as
// records of op byte, length byte, then up to that many payload bytes;
// each byte of splits sizes one chunk (1–256 bytes, cycling), and empty
// splits feed the whole stream at once.
//
// Next returns payloads that alias the reader's buffer, so two more
// checks guard that aliasing: appending to a returned payload must not
// write into the stream, and at the end every payload Next returned must
// still hold the bytes it held when returned.
func FuzzFrameReader(f *testing.F) {
	f.Add([]byte("S\x05helloG\x00"), []byte{})
	f.Add([]byte("S\x03abcG\x00W\x04wxyzE\x02hi"), []byte{6, 2, 9})
	f.Fuzz(func(t *testing.T, msgs, splits []byte) {
		type frame struct {
			op      byte
			payload []byte
		}
		var want []frame
		var stream []byte
		for len(msgs) >= 2 {
			op, n := msgs[0], min(int(msgs[1]), len(msgs)-2)
			want = append(want, frame{op, msgs[2 : 2+n]})
			stream = AppendFrame(stream, op, msgs[2:2+n])
			msgs = msgs[2+n:]
		}

		var fr FrameReader
		var got []frame
		for off, k := 0, 0; off < len(stream); k++ {
			n := len(stream) - off
			if len(splits) > 0 {
				n = min(n, 1+int(splits[k%len(splits)]))
			}
			// The reader owns what it is fed, as it owns a socket's
			// ReadAll result: hand it a fresh copy.
			fr.Feed(bytes.Clone(stream[off : off+n]))
			off += n
			for {
				op, p, ok := fr.Next()
				if !ok {
					break
				}
				if len(got) == len(want) {
					t.Fatalf("frame %d returned, only %d encoded", len(got), len(want))
				}
				if w := want[len(got)]; op != w.op || !bytes.Equal(p, w.payload) {
					t.Fatalf("frame %d: got op %q payload %q, want op %q payload %q", len(got), op, p, w.op, w.payload)
				}
				_ = append(p, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)
				got = append(got, frame{op, p})
			}
		}
		if len(got) != len(want) || fr.Buffered() != 0 {
			t.Fatalf("%d of %d frames returned, %d bytes left buffered", len(got), len(want), fr.Buffered())
		}
		for i := range got {
			if !bytes.Equal(got[i].payload, want[i].payload) {
				t.Fatalf("payload of frame %d changed after later feeds: now %q, was %q", i, got[i].payload, want[i].payload)
			}
		}
	})
}
