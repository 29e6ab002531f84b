package main

import (
	"container/heap"
	"time"
)

// The benchmark's box is shared, and its speed drifts by up to a fifth
// over minutes as other tenants load it. Every wall-clock end-to-end
// metric is therefore scaled by how fast a fixed reference kernel ran in
// the same process: before each world, with the previous world collected,
// the run times calibrate(), and the run's median kernel time over
// refNominal is its machine factor. The kernel is a miniature of the
// simulator's inner loop (a timed event queue, map updates, small
// allocations and 4 KiB page copies) written with the standard library
// only, so no change to the repository's own packages can speed it up or
// slow it down.

// refNominal is the kernel's median time on the reference box (2 vCPU
// Xeon, Go 1.24, GOMAXPROCS 1): scaled metrics read as they would there.
const refNominal = 40 * time.Millisecond

const (
	refEvents = 120_000
	refQueue  = 256
)

// refArena stands in for guest memory; it is touched once at start so
// the kernel never page-faults.
var refArena = func() []byte {
	b := make([]byte, 16<<20)
	for i := range b {
		b[i] = byte(i)
	}
	return b
}()

// refSink keeps the kernel's results live.
var refSink int

type refEvent struct {
	at  int64
	key uint64
}

type refHeap []refEvent

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// refObj is a small heap object, chained so the collector has pointers
// to trace.
type refObj struct {
	at, key int64
	next    *refObj
}

// calibrate runs the reference kernel once and returns its wall time.
// Its work is fixed: the same events, keys and copies on every call.
func calibrate() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	next := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	q := &refHeap{}
	for i := 0; i < refQueue; i++ {
		k := next()
		heap.Push(q, refEvent{int64(k % 1000), k})
	}
	counts := make(map[uint64]int64, 1<<14)
	var page [4096]byte
	var chain *refObj
	pages := uint64(len(refArena) / len(page))
	for i := 0; i < refEvents; i++ {
		e := heap.Pop(q).(refEvent)
		counts[e.key&0xffff] += e.at
		if i%8 == 0 {
			off := int(e.key%pages) * len(page)
			copy(page[:], refArena[off:])
			copy(refArena[off:off+len(page)], page[:])
		}
		chain = &refObj{e.at, int64(e.key), chain}
		if i%64 == 0 {
			chain = nil
		}
		heap.Push(q, refEvent{e.at + int64(next()%1000), x})
	}
	refSink += len(counts)
	return time.Since(start)
}
