package workloads

import (
	"bytes"
	"testing"
)

// FuzzFrameReader encodes an arbitrary (op, payload) sequence with
// AppendFrame, feeds the stream to a FrameReader in fuzz-chosen chunks
// and checks that the frames come back in order. msgs is read as
// records of op byte, length byte, then up to that many payload bytes.
// Each byte s of splits (cycling) sizes one chunk, 1+s bytes, and by
// s%3 places it: in an array of its own (0), in a shared arena right
// after the arena's previous chunk (1), as the segments of one send lie
// in a send slab, or in the arena after a gap of filler bytes (2).
// Empty splits feed the whole stream at once, from the arena. Every
// chunk is laid out before the first is fed, and an arena chunk keeps
// the arena's capacity, so a reader that appended into an adopted
// slice would overwrite chunks it has yet to read, and one that
// extended a slice over a gap would read the filler.
//
// Next returns payloads that alias the reader's buffer, so more checks
// guard that aliasing: appending to a returned payload must not write
// into the stream, at the end every payload Next returned must still
// hold the bytes it held when returned, and no fed byte may change.
func FuzzFrameReader(f *testing.F) {
	f.Add([]byte("S\x05helloG\x00"), []byte{})
	f.Add([]byte("S\x03abcG\x00W\x04wxyzE\x02hi"), []byte{6, 2, 9})
	f.Add([]byte("S\x03abcG\x00W\x04wxyzE\x02hiS\x07partial"), []byte{1, 4, 7, 2, 5})
	f.Add([]byte("S\x03abcG\x00W\x04wxyzE\x02hiS\x07partial"), []byte{4, 2, 3, 1, 8, 0})
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

		// Lay the chunks out. The reader owns what it is fed, as it owns
		// a socket's ReadAll result, so every chunk is a copy.
		arena := make([]byte, 0, 2*len(stream))
		var chunks [][]byte
		var spans [][2]int // arena chunks' bounds, by chunk index; {-1} for an own array
		for off, k := 0, 0; off < len(stream); k++ {
			n, mode := len(stream)-off, byte(1)
			if len(splits) > 0 {
				s := splits[k%len(splits)]
				n, mode = min(n, 1+int(s)), s%3
			}
			b := stream[off : off+n]
			off += n
			if mode == 0 {
				chunks, spans = append(chunks, bytes.Clone(b)), append(spans, [2]int{-1})
				continue
			}
			if mode == 2 {
				arena = append(arena, bytes.Repeat([]byte{0xEE}, 1+n%4)...)
			}
			spans = append(spans, [2]int{len(arena), len(arena) + n})
			arena = append(arena, b...)
			chunks = append(chunks, nil)
		}
		for i, sp := range spans {
			if sp[0] >= 0 {
				chunks[i] = arena[sp[0]:sp[1]]
			}
		}
		laid := bytes.Clone(arena)

		var fr FrameReader
		var got []frame
		for _, c := range chunks {
			fr.Feed(c)
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
		if !bytes.Equal(arena, laid) {
			t.Fatal("the reader wrote into a slice it was fed")
		}
	})
}
