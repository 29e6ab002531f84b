// The simulation engine: one hierarchical timing wheel holding every
// shard's events under the (when, shard, seq) total order.
//
// # Shards
//
// A *logical shard* is a determinism domain: one per simulated host
// (plus shard 0, the root, for fabric-level drivers — switches,
// campaign oracles, fleet control loops). Shards are created with
// NewShard, in topology order, so shard IDs depend only on the
// topology.
//
// # Total order
//
// Every event is keyed (when, shard, seq) where shard is the shard
// *executing when the event was scheduled* (the scheduling context;
// the view's own shard when scheduled from driver code outside any
// event) and seq is that shard's private counter, fixed at schedule
// time. Events at the same instant therefore fire shard by shard, and
// within a shard in scheduling order. The per-shard counters are why
// Clock views exist: a view carries the shard a driver-level schedule
// is keyed by, and an event carries the shard its own schedules are
// keyed by.
package simtime

import (
	"fmt"
	"sort"
)

// Timing-wheel geometry. Level 0 slots are 1024ns (~1µs) wide; each
// higher level is 256× coarser, so four levels cover ~73 minutes of
// virtual time and anything beyond spills into a keyed overflow heap.
const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 4
	tickShift   = 10
	bitmapWords = wheelSlots / 64
)

// slabChunk is the Event allocation batch: events are handed
// out of chunked arrays so the steady-state schedule path amortizes one
// heap allocation across slabChunk events. Chunks are never reused —
// Cancel on a long-dead *Event must keep hitting its own memory — so a
// chunk is freed by the GC once every event in it is unreachable.
const slabChunk = 128

// keyLess is the engine's total order: (when, shard, seq).
func keyLess(a, b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	if a.shard != b.shard {
		return a.shard < b.shard
	}
	return a.seq < b.seq
}

// keyHeap is a heap over the full (when, shard, seq) key, used only for
// the far-future overflow of a wheel.
type keyHeap []*Event

func (h *keyHeap) push(e *Event) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !keyLess((*h)[i], (*h)[p]) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *keyHeap) pop() *Event {
	old := *h
	e := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = nil
	*h = old[:n]
	i, hp := 0, *h
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && keyLess(hp[l], hp[m]) {
			m = l
		}
		if r < n && keyLess(hp[r], hp[m]) {
			m = r
		}
		if m == i {
			break
		}
		hp[i], hp[m] = hp[m], hp[i]
		i = m
	}
	return e
}

type wheelLevel struct {
	slots  [wheelSlots][]*Event
	bitmap [bitmapWords]uint64
	count  int // events stored at this level (skips empty-level scans)
}

// wheel is the engine's future-event store: hierarchical bitmap-indexed
// timing wheels with a keyed overflow heap past the outermost span.
// Invariant: every queued event has when >= cur.
type wheel struct {
	cur      Time
	levels   [wheelLevels]wheelLevel
	overflow keyHeap
	count    int
	// free recycles drained slot slices so steady-state insert/drain
	// cycles allocate nothing (the freelist is bounded by the number of
	// slots ever nonempty at once).
	free [][]*Event
}

// insert files e at the lowest level whose slot number is less than one
// revolution past the cursor's. Choosing by slot-number difference
// rather than tick delta matters: a delay just under one revolution from
// a cursor late in its slot has a small enough tick delta but lands one
// full revolution ahead, in the very slot being scanned.
func (w *wheel) insert(e *Event) {
	w.count++
	tw := uint64(e.when) >> tickShift
	tc := uint64(w.cur) >> tickShift
	for l := uint(0); l < wheelLevels; l++ {
		if (tw>>(l*wheelBits))-(tc>>(l*wheelBits)) < wheelSlots {
			idx := int((tw >> (l * wheelBits)) & wheelMask)
			lv := &w.levels[l]
			if lv.slots[idx] == nil {
				lv.slots[idx] = w.getSlot()
			}
			lv.slots[idx] = append(lv.slots[idx], e)
			lv.bitmap[idx>>6] |= 1 << uint(idx&63)
			lv.count++
			return
		}
	}
	w.overflow.push(e)
}

func (w *wheel) getSlot() []*Event {
	if n := len(w.free); n > 0 {
		s := w.free[n-1]
		w.free = w.free[:n-1]
		return s
	}
	return make([]*Event, 0, 8)
}

// recycle returns a drained slot slice to the freelist, dropping its
// event pointers for the GC. Clearing the used prefix is enough: slot
// slices only ever grow by append, so every freelist slice is all-nil
// beyond its length, and so is everything append fills from it.
func (w *wheel) recycle(s []*Event) {
	if cap(s) == 0 {
		return
	}
	clear(s)
	w.free = append(w.free, s[:0])
}

// findSlot returns the first nonempty slot at level l, scanning
// circularly from the slot containing cur. start is the slot's absolute
// start time. Whole-empty bitmap words are skipped.
func (w *wheel) findSlot(l uint) (idx int, start Time, found bool) {
	lv := &w.levels[l]
	curSlotNum := (uint64(w.cur) >> tickShift) >> (l * wheelBits)
	s := int(curSlotNum & wheelMask)
	for off := 0; off < wheelSlots; off++ {
		i := (s + off) & wheelMask
		word := lv.bitmap[i>>6]
		if word == 0 {
			off += 63 - (i & 63) // skip rest of the empty word
			continue
		}
		if word&(1<<uint(i&63)) != 0 {
			slotNum := curSlotNum + uint64(off)
			return i, Time((slotNum << (l * wheelBits)) << tickShift), true
		}
	}
	return 0, 0, false
}

// nextSlot removes and returns the earliest nonempty level-0 slot's
// events plus the exclusive end time of that slot, cascading higher
// levels down as needed. ok is false when the wheel is empty.
//
// A level-l slot start is a multiple of the slot width 256^l ticks, so
// two candidate slots at different levels either start at the same time
// (the coarser one may hide earlier events and must cascade first) or
// the later one starts at or beyond the earlier one's end (safe).
// Choosing the minimum-start candidate, preferring the higher level on
// ties, is therefore sufficient for exact ordering.
func (w *wheel) nextSlot() (batch []*Event, end Time, ok bool) {
	for {
		bestL := -1
		var bestIdx int
		var bestStart Time
		for l := uint(0); l < wheelLevels; l++ {
			if w.levels[l].count == 0 {
				continue
			}
			idx, start, found := w.findSlot(l)
			if !found {
				continue
			}
			if bestL < 0 || start < bestStart || (start == bestStart && int(l) > bestL) {
				bestL, bestIdx, bestStart = int(l), idx, start
			}
		}
		if len(w.overflow) > 0 && (bestL < 0 || w.overflow[0].when <= bestStart) {
			// The overflow head is due before (or at) every wheel slot:
			// pull it back through the wheel so it merges in exact order
			// with any same-slot events.
			e := w.overflow.pop()
			if e.when > w.cur {
				w.cur = e.when
			}
			w.count--
			w.insert(e)
			continue
		}
		if bestL < 0 {
			return nil, 0, false
		}
		if start := bestStart; bestL == 0 {
			lv := &w.levels[0]
			batch = lv.slots[bestIdx]
			lv.slots[bestIdx] = nil
			lv.bitmap[bestIdx>>6] &^= 1 << uint(bestIdx&63)
			lv.count -= len(batch)
			w.count -= len(batch)
			if start > w.cur {
				w.cur = start
			}
			return batch, start + (1 << tickShift), true
		}
		// Cascade: advance to the slot and push its events one level
		// down. Deltas from the advanced cur are strictly below the slot
		// width, so every event lands at level <= bestL-1: progress.
		if bestStart > w.cur {
			w.cur = bestStart
		}
		lv := &w.levels[bestL]
		evs := lv.slots[bestIdx]
		lv.slots[bestIdx] = nil
		lv.bitmap[bestIdx>>6] &^= 1 << uint(bestIdx&63)
		lv.count -= len(evs)
		for _, e := range evs {
			w.count--
			w.insert(e)
		}
		w.recycle(evs)
	}
}

// ShardedClock is the simulation engine: one timing wheel plus the
// key-sorted run of the level-0 slot being consumed. Create it with
// NewEngine, obtain *Clock views with Root and NewShard, and drive it
// through any view's Run/RunUntil/RunFor (or its own).
//
// Invariant: wheel events have when >= runEnd; inserts below runEnd
// splice into the run's unconsumed tail.
type ShardedClock struct {
	root     *Clock
	ctrs     []uint64 // per-shard key counters, indexed by shard ID
	now      Time
	curShard int32 // shard of the executing event; -1 outside events
	stopped  bool
	running  bool
	executed uint64
	// live counts scheduled events that have neither fired nor been
	// canceled (Pending).
	live int64

	wh     wheel
	run    []*Event
	runPos int
	runEnd Time
	// slab is the chunked Event allocator (see slabChunk).
	slab    []Event
	slabPos int
}

// NewEngine creates an engine at virtual time zero with only the root
// shard.
func NewEngine() *ShardedClock {
	sc := &ShardedClock{curShard: -1, ctrs: []uint64{0}}
	sc.root = &Clock{eng: sc, shard: 0}
	return sc
}

// NewShardedClock is NewEngine under its old name, whose argument
// counted event wheels. The benchmark module (bench/) is its last
// caller. The engine has exactly one wheel, so any n other than 1
// panics.
func NewShardedClock(n int) *ShardedClock {
	if n != 1 {
		panic(fmt.Sprintf("simtime: NewShardedClock(%d): the engine has exactly one wheel", n))
	}
	return NewEngine()
}

// Root returns the fabric view: shard 0, for switches, campaign drivers
// and anything else that is not pinned to one simulated host.
func (sc *ShardedClock) Root() *Clock { return sc.root }

// NewShard creates the next logical shard and returns its Clock view.
// Call once per simulated host, in topology order, so shard IDs — and
// with them the (when, shard, seq) total order — depend only on the
// topology.
func (sc *ShardedClock) NewShard() *Clock {
	v := &Clock{eng: sc, shard: int32(len(sc.ctrs))}
	sc.ctrs = append(sc.ctrs, 0)
	return v
}

// Now returns the engine's virtual time.
func (sc *ShardedClock) Now() Time { return sc.now }

// Pending returns the number of scheduled events that have neither
// fired nor been canceled.
func (sc *ShardedClock) Pending() int { return int(sc.live) }

// Executed returns the total number of events fired.
func (sc *ShardedClock) Executed() uint64 { return sc.executed }

// alloc hands out the next Event from the slab chunk.
func (sc *ShardedClock) alloc() *Event {
	if sc.slabPos == len(sc.slab) {
		sc.slab = make([]Event, slabChunk)
		sc.slabPos = 0
	}
	e := &sc.slab[sc.slabPos]
	sc.slabPos++
	return e
}

func (sc *ShardedClock) scheduleAt(view *Clock, t Time, fn func()) *Event {
	schedShard := view.shard
	if sc.curShard >= 0 {
		schedShard = sc.curShard
	}
	if t < sc.now {
		t = sc.now
	}
	e := sc.alloc()
	*e = Event{when: t, seq: sc.ctrs[schedShard], shard: schedShard, target: view.shard, fn: fn, eng: sc}
	sc.ctrs[schedShard]++
	sc.live++
	if t < sc.runEnd {
		i := sc.runPos
		for i < len(sc.run) && keyLess(sc.run[i], e) {
			i++
		}
		sc.run = append(sc.run, nil)
		copy(sc.run[i+1:], sc.run[i:])
		sc.run[i] = e
	} else {
		sc.wh.insert(e)
	}
	return e
}

// head returns the next live event without consuming it, pulling and
// key-sorting the next wheel slot when the run is exhausted.
func (sc *ShardedClock) head() *Event {
	for {
		for sc.runPos < len(sc.run) {
			e := sc.run[sc.runPos]
			if e.cancel {
				sc.run[sc.runPos] = nil
				sc.runPos++
				continue
			}
			return e
		}
		batch, end, ok := sc.wh.nextSlot()
		if !ok {
			sc.run = sc.run[:0]
			sc.runPos = 0
			return nil
		}
		// Copy live events into the reusable run buffer and hand the
		// slot slice back to the wheel: the steady-state refill path
		// allocates nothing.
		sc.run = sc.run[:0]
		for _, e := range batch {
			if !e.cancel {
				sc.run = append(sc.run, e)
			}
		}
		sc.wh.recycle(batch)
		sortByKey(sc.run)
		sc.runPos = 0
		sc.runEnd = end
	}
}

// sortByKey orders a slot batch by (when, shard, seq). Batches are
// typically small (one level-0 slot), so insertion sort wins and
// allocates nothing; large batches fall back to the library sort.
func sortByKey(evs []*Event) {
	if len(evs) <= 48 {
		for i := 1; i < len(evs); i++ {
			e := evs[i]
			j := i - 1
			for j >= 0 && keyLess(e, evs[j]) {
				evs[j+1] = evs[j]
				j--
			}
			evs[j+1] = e
		}
		return
	}
	sort.Slice(evs, func(i, j int) bool { return keyLess(evs[i], evs[j]) })
}

// fire consumes e, the event head() just returned, and runs it as its
// target shard.
func (sc *ShardedClock) fire(e *Event) {
	sc.run[sc.runPos] = nil
	sc.runPos++
	sc.now = e.when
	sc.curShard = e.target
	sc.live--
	e.fire()
	sc.executed++
	sc.curShard = -1
}

// step fires the next event; false when none is left.
func (sc *ShardedClock) step() bool {
	e := sc.head()
	if e == nil {
		return false
	}
	sc.fire(e)
	return true
}

func (sc *ShardedClock) drive(until Time, bounded bool) {
	if sc.running {
		panic("simtime: reentrant Run on ShardedClock")
	}
	sc.running = true
	defer func() { sc.running = false }()
	sc.stopped = false
	for !sc.stopped {
		e := sc.head()
		if e == nil || (bounded && e.when > until) {
			break
		}
		sc.fire(e)
	}
	if bounded && sc.now < until {
		sc.now = until
	}
}

// Run fires events until none is left or Stop is called.
func (sc *ShardedClock) Run() { sc.drive(0, false) }

// RunUntil fires events with time <= t, then sets the engine to t.
func (sc *ShardedClock) RunUntil(t Time) { sc.drive(t, true) }

// RunFor is shorthand for RunUntil(Now().Add(d)).
func (sc *ShardedClock) RunFor(d Duration) { sc.RunUntil(sc.now.Add(d)) }

// Stop makes a Run/RunUntil in progress return after the current event.
func (sc *ShardedClock) Stop() { sc.stopped = true }
