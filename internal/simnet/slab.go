package simnet

import (
	"math/bits"
	"sync"

	"nilicon/internal/pool"
)

// Slab is a send slab: the array a socket's sends are written into,
// with a count of the holders of views of it (DESIGN.md §8, stream-byte
// ownership). Each holder that keeps a view past the call that handed
// it over takes a hold and drops it where it lets go; the last drop
// returns the slab to the free list, and the next socket that needs a
// slab writes over its bytes. A count may run high, never low: a holder
// that never reports a release pins its slab, which the collector then
// frees, so a missed drop costs only memory. A nil *Slab is a view of
// bytes that no slab tracks (a restored socket's queue, a buffer the
// receiver copied into); its Hold and Drop do nothing.
type Slab struct {
	buf  []byte // the whole array, at length 0
	refs pool.Refs
}

// Hold records n more holders.
func (sl *Slab) Hold(n int) {
	if sl != nil {
		sl.refs += pool.Refs(n)
	}
}

// Drop removes one holder; the last returns the slab to the free list.
func (sl *Slab) Drop() {
	if sl != nil && sl.refs.Drop() {
		putSlab(sl)
	}
}

// slabPool is the free list of send slabs whose last holder let go,
// one stack per size class (floor of log2 of the capacity), guarded by
// a mutex because worlds run in parallel. It keeps at most slabPoolMax
// bytes; a slab freed past that is left to the collector, so a burst of
// releases (a superseded image with many sockets' write queues) does
// not pin memory for the rest of the process. Shared, bounded and
// holding buffers, not records, it is not a pool.Free.
var slabPool struct {
	mu    sync.Mutex
	free  [bits.UintSize][]*Slab
	bytes int
}

// slabPoolMax bounds the bytes the slab free list keeps.
const slabPoolMax = 16 << 20

// newSlab returns a slab with room for at least size bytes and no
// holder: a recycled one when its size class, or the next one up, has
// one on top, or a fresh one of exactly size bytes. A recycled slab's
// bytes are whatever its last use wrote; a sender writes every byte
// before it hands it out.
func newSlab(size int) *Slab {
	c := bits.Len(uint(size)) - 1
	slabPool.mu.Lock()
	for k := c; k <= c+1; k++ {
		n := len(slabPool.free[k])
		if n > 0 && cap(slabPool.free[k][n-1].buf) >= size {
			sl := slabPool.free[k][n-1]
			slabPool.free[k][n-1] = nil
			slabPool.free[k] = slabPool.free[k][:n-1]
			slabPool.bytes -= cap(sl.buf)
			slabPool.mu.Unlock()
			return sl
		}
	}
	slabPool.mu.Unlock()
	return &Slab{buf: make([]byte, 0, size)}
}

// putSlab returns a slab whose last holder let go to the free list.
func putSlab(sl *Slab) {
	slabPool.mu.Lock()
	if slabPool.bytes+cap(sl.buf) <= slabPoolMax {
		c := bits.Len(uint(cap(sl.buf))) - 1
		slabPool.free[c] = append(slabPool.free[c], sl)
		slabPool.bytes += cap(sl.buf)
	}
	slabPool.mu.Unlock()
}
